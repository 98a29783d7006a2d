#include "core/serialize.hpp"

#include "core/oc_merger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/fault.hpp"

namespace smart::core {
namespace {

ProfileDataset make_dataset(bool varied = false) {
  ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = 6;
  cfg.samples_per_oc = 2;
  cfg.seed = 909;
  cfg.vary_problem_size = varied;
  cfg.vary_boundary = varied;
  return build_profile_dataset(cfg);
}

void expect_equal(const ProfileDataset& a, const ProfileDataset& b) {
  ASSERT_EQ(a.stencils.size(), b.stencils.size());
  for (std::size_t s = 0; s < a.stencils.size(); ++s) {
    EXPECT_EQ(a.stencils[s], b.stencils[s]);
    EXPECT_EQ(a.problems[s].nx, b.problems[s].nx);
    EXPECT_EQ(a.problems[s].boundary, b.problems[s].boundary);
    for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
      ASSERT_EQ(a.settings[s][oc].size(), b.settings[s][oc].size());
      for (std::size_t k = 0; k < a.settings[s][oc].size(); ++k) {
        EXPECT_EQ(a.settings[s][oc][k], b.settings[s][oc][k]);
      }
      for (std::size_t g = 0; g < a.num_gpus(); ++g) {
        ASSERT_EQ(a.times[s][g][oc].size(), b.times[s][g][oc].size());
        for (std::size_t k = 0; k < a.times[s][g][oc].size(); ++k) {
          const double ta = a.times[s][g][oc][k];
          const double tb = b.times[s][g][oc][k];
          if (std::isnan(ta)) {
            EXPECT_TRUE(std::isnan(tb));
          } else {
            // hexfloat encoding: bit-exact round trip.
            EXPECT_EQ(ta, tb);
          }
        }
      }
    }
  }
}

TEST(Serialize, RoundTripIsBitExact) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  expect_equal(original, loaded);
  EXPECT_EQ(loaded.config.dims, original.config.dims);
  EXPECT_EQ(loaded.config.seed, original.config.seed);
}

TEST(Serialize, RoundTripWithExtensions) {
  const auto original = make_dataset(true);
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  expect_equal(original, loaded);
  EXPECT_TRUE(loaded.config.vary_problem_size);
}

TEST(Serialize, FileRoundTrip) {
  const auto original = make_dataset();
  const std::string path = testing::TempDir() + "smart_dataset_test.txt";
  save_dataset(original, path);
  const auto loaded = load_dataset(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer("not-a-dataset\n");
  EXPECT_THROW(load_dataset(buffer), std::runtime_error);
}

TEST(Serialize, RejectsUnknownTag) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  std::string text = buffer.str();
  text += "bogus 1 2 3\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeIndices) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  std::string text = buffer.str();
  text += "time 99 0 0 0 1.0\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsCorruptTimeValue) {
  // A half-parsable time token ("1.2.3" -> 1.2 under bare strtod) used to
  // load silently; strict parsing must throw instead.
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  std::string text = buffer.str();
  text += "time 0 0 0 2 1.2.3\n";
  std::stringstream corrupted(text);
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, RejectsNonPositiveOrNonFiniteTime) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  for (const std::string bad : {"-1.5", "0", "inf", "nan"}) {
    std::stringstream corrupted(buffer.str() + "time 0 0 0 2 " + bad + "\n");
    EXPECT_THROW(load_dataset(corrupted), std::runtime_error) << bad;
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/dataset.txt"), std::runtime_error);
  // A directory opens but cannot be read (nor sized: not std::bad_alloc).
  EXPECT_THROW(load_dataset(testing::TempDir()), std::runtime_error);
}

TEST(Serialize, ParseErrorsCarrySourceAndLineContext) {
  // Satellite contract: a bad record is reported as "<source>:<line>: ...",
  // pinpointing the offending line instead of a bare what() string.
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const std::string text = buffer.str();
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  std::stringstream corrupted(text + "time 0 0 0 2 1.2.3\n");
  try {
    load_dataset(corrupted, "corpus.txt");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("corpus.txt:" + std::to_string(lines + 1) + ": "), 0u)
        << what;
    EXPECT_NE(what.find("unparsable time field '1.2.3'"), std::string::npos)
        << what;
  }
  // The default source name still provides the line number.
  std::stringstream bad_magic("not-a-dataset\n");
  try {
    load_dataset(bad_magic);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find("<stream>:1: "), 0u) << e.what();
  }
}

/// `text` with its header line's first three fields (dims, max_order,
/// stencil count) replaced by `fields`.
std::string with_header(const std::string& text, const std::string& fields) {
  const std::size_t begin = text.find('\n') + 1;
  std::size_t cut = begin;
  for (int i = 0; i < 3; ++i) cut = text.find(' ', cut) + 1;
  return text.substr(0, begin) + fields + ' ' + text.substr(cut);
}

TEST(Serialize, RejectsHeaderValuesPastTheGeneratorsLimits) {
  // Forged header values must fail as a "<source>:<line>:" parse error —
  // not a usage error, not std::bad_alloc, and not after allocating for a
  // stencil count the file does not hold.
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const std::string text = buffer.str();
  const struct {
    std::string fields;
    std::string needle;
  } mutants[] = {
      {"9 4 6", "corpus.txt:2: header dims must be 2 or 3"},
      {"2 30000000 6", "corpus.txt:2: header max_order must be in [1, 4]"},
      {"2 0 6", "corpus.txt:2: header max_order must be in [1, 4]"},
      {"2 1 6", "stencil order exceeds the header's max_order"},
      {"2 4 3000000", "stencil count mismatch (header says 3000000"},
      {"2 4 300000000", "stencil count mismatch (header says 300000000"},
  };
  const auto expect_rejected = [](const std::string& corpus,
                                  const std::string& needle) {
    std::stringstream in(corpus);
    try {
      load_dataset(in, "corpus.txt");
      ADD_FAILURE() << "load_dataset accepted a forged corpus";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  for (const auto& mutant : mutants) {
    SCOPED_TRACE(mutant.fields);
    expect_rejected(with_header(text, mutant.fields), mutant.needle);
  }
  // A stencil offset past the int8 Point range must not wrap silently.
  std::string wrapped = text;
  const std::size_t record = wrapped.find("\nstencil ") + 1;
  const std::size_t offsets = wrapped.rfind(' ', wrapped.find('\n', record));
  wrapped.insert(offsets + 1, "300:0:0;");
  expect_rejected(wrapped, "offset coordinate out of range in '300:0:0'");
}

TEST(Serialize, RejectsMalformedOffsetTokens) {
  // Each offset is exactly x:y:z of decimal ints. sscanf("%d:%d:%d") took
  // a fourth field or trailing junk and dropped it silently.
  std::stringstream buffer;
  save_dataset(make_dataset(), buffer);
  const std::string text = buffer.str();
  const std::size_t record = text.find("\nstencil ") + 1;
  const std::size_t offsets = text.rfind(' ', text.find('\n', record)) + 1;
  for (const char* bad : {"1:0:0:0;", "1:0:0x;", "1:0;", "1::0;", "a:0:0;",
                          ";", "+1:0:0;"}) {
    SCOPED_TRACE(bad);
    std::string corrupted = text;
    corrupted.insert(offsets, bad);
    std::stringstream in(corrupted);
    try {
      load_dataset(in, "corpus.txt");
      ADD_FAILURE() << "load_dataset accepted a malformed offset";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("corpus.txt:"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("bad offset token"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialize, QuarantineRecordsRoundTrip) {
  auto original = make_dataset();
  original.quarantined.push_back(
      {1, 3, 0, "injected measure permanent fault (identity abc, attempt 0)"});
  original.quarantined.push_back(
      {4, 17, 2, "transient fault budget exhausted: injected fault"});
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  EXPECT_EQ(loaded.quarantined, original.quarantined);

  // Out-of-range quarantine indices are rejected with context.
  std::stringstream buffer2;
  save_dataset(make_dataset(), buffer2);
  std::stringstream corrupted(buffer2.str() + "quar 99 0 0 boom\n");
  EXPECT_THROW(load_dataset(corrupted), std::runtime_error);
}

TEST(Serialize, AtomicSaveLeavesDestinationIntactOnFailure) {
  const auto original = make_dataset();
  const std::string path = testing::TempDir() + "smart_atomic_dataset.txt";
  save_dataset(original, path);
  {
    // An injected io fault mid-save must not clobber the existing corpus.
    const util::ScopedFaultInjection faults("seed=1;io:p=1");
    EXPECT_THROW(save_dataset(original, path), std::runtime_error);
  }
  const auto loaded = load_dataset(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(Serialize, LoadedDatasetDrivesDownstreamTasks) {
  const auto original = make_dataset();
  std::stringstream buffer;
  save_dataset(original, buffer);
  const auto loaded = load_dataset(buffer);
  OcMerger merger;
  merger.fit(loaded);
  EXPECT_EQ(merger.num_groups(), 5);
  for (std::size_t s = 0; s < loaded.stencils.size(); ++s) {
    EXPECT_EQ(loaded.best_oc(s, 0), original.best_oc(s, 0));
  }
}

}  // namespace
}  // namespace smart::core
