// Model artifact contract (train-once/serve-many): a StencilMart saved with
// save_model and reloaded with load_model must advise bit-identically to the
// in-memory model, for every regressor kind, in serial mode and at the
// default thread count. Comparisons use std::bit_cast so a 1-ulp drift in
// the reloaded weights fails loudly (PR-2 style).
//
// The suite also pins the artifact's error paths: bad magic, unsupported
// version, truncation, checksum corruption, NaN weights smuggled into a
// re-checksummed payload, trailing payload data and tree splits on a feature
// past the end of the row all raise a clear std::runtime_error instead of
// producing a silently-wrong model (or an out-of-bounds read).
//
// Suite names map onto the ctest label groups (tests/CMakeLists.txt):
//   ModelArtifact.*          -> unit      (round trips under SerialSection)
//   ParallelModelArtifact.*  -> parallel  (round trips at default threads)
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "core/advisor_server.hpp"
#include "core/mart.hpp"
#include "core/serialize.hpp"
#include "ml/gbdt.hpp"
#include "stencil/pattern.hpp"
#include "util/fault.hpp"
#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"

// Largest single operator-new request while the probe is armed: a forged
// count that sizes an allocation shows up here even when the load that
// made it then fails.
namespace {
std::atomic<bool> g_alloc_probe_armed{false};
std::atomic<std::size_t> g_alloc_probe_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_probe_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_alloc_probe_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_alloc_probe_largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the free() below with the call sites' operator new and warns;
// in a replacement operator delete the pairing is the point.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace smart::core {
namespace {

/// The largest single allocation `f` requests.
template <class F>
std::size_t largest_allocation_during(F&& f) {
  g_alloc_probe_largest.store(0);
  g_alloc_probe_armed.store(true);
  try {
    f();
  } catch (...) {
    g_alloc_probe_armed.store(false);
    throw;
  }
  g_alloc_probe_armed.store(false);
  return g_alloc_probe_largest.load();
}

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

/// 3-D, because a 2-D corpus of any size labels every stencil group 0 on
/// the A100, which leaves that classifier a single leaf; at 12 3-D stencils
/// every per-GPU classifier splits (EveryFixtureClassifierSplits).
const ProfileDataset& artifact_corpus() {
  static const ProfileDataset ds = [] {
    ProfileConfig cfg;
    cfg.dims = 3;
    cfg.num_stencils = 12;
    cfg.samples_per_oc = 2;
    cfg.seed = 909;
    return build_profile_dataset(cfg);
  }();
  return ds;
}

MartConfig small_config(RegressorKind kind) {
  MartConfig config;
  config.regressor = kind;
  config.regression.epochs = 3;
  config.regression.instance_cap = 600;
  config.tuning_samples = 8;
  return config;
}

/// One trained mart per regressor kind, fitted once from the shared corpus
/// (at default threads) and reused by the serial and parallel suites — the
/// contract under test is save/load + inference, not fitting.
const StencilMart& trained_mart(RegressorKind kind) {
  static std::vector<std::unique_ptr<StencilMart>> marts(3);
  auto& slot = marts[static_cast<std::size_t>(kind)];
  if (!slot) {
    slot = std::make_unique<StencilMart>(small_config(kind));
    slot->train(artifact_corpus());
  }
  return *slot;
}

std::vector<stencil::StencilPattern> query_patterns() {
  return {stencil::make_star(3, 2), stencil::make_box(3, 1),
          stencil::make_cross(3, 3)};
}

/// One advise_batch item with the rental recommendation.
AdviseBatchResult advise_one(const StencilMart& mart,
                             const stencil::StencilPattern& pattern,
                             const std::string& gpu) {
  const AdviseBatchItem item{pattern, gpu};
  AdviseBatchResult result = mart.advise_batch({&item, 1})[0];
  EXPECT_TRUE(result.ok()) << result.error;
  return result;
}

/// Saves `mart`, reloads it, and checks that every advice and rental
/// output is identical — doubles bitwise — for unseen query stencils.
void check_round_trip(RegressorKind kind) {
  const StencilMart& original = trained_mart(kind);
  std::stringstream buffer;
  save_model(original, buffer);
  const StencilMart loaded = load_model(buffer);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.config().regressor, kind);
  EXPECT_EQ(loaded.config().profile.dims, original.config().profile.dims);

  std::vector<AdviseBatchItem> items;
  for (const auto& pattern : query_patterns()) {
    for (const auto& gpu : original.dataset().gpus) {
      items.push_back({pattern, gpu.name});
    }
  }
  const auto want = original.advise_batch(items);
  const auto got = loaded.advise_batch(items);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(want[i].ok()) << want[i].error;
    ASSERT_TRUE(got[i].ok()) << got[i].error;
    const OcAdvice& a = want[i].advice;
    const OcAdvice& b = got[i].advice;
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.group_name, b.group_name);
    EXPECT_EQ(a.oc.name(), b.oc.name());
    EXPECT_EQ(a.setting.to_string(), b.setting.to_string());
    expect_bitwise(a.expected_time_ms, b.expected_time_ms);
    expect_bitwise(a.predicted_time_ms, b.predicted_time_ms);
    EXPECT_EQ(want[i].rec.fastest_gpu, got[i].rec.fastest_gpu);
    EXPECT_EQ(want[i].rec.cheapest_gpu, got[i].rec.cheapest_gpu);
    expect_bitwise(want[i].rec.fastest_time_ms, got[i].rec.fastest_time_ms);
    expect_bitwise(want[i].rec.cheapest_cost_score,
                   got[i].rec.cheapest_cost_score);
  }
}

/// A saved artifact (GBR unless a test needs the NN sections), reused by
/// the corruption tests below.
const std::string& reference_artifact(RegressorKind kind = RegressorKind::kGbr) {
  static std::vector<std::string> artifacts(3);
  std::string& artifact = artifacts[static_cast<std::size_t>(kind)];
  if (artifact.empty()) {
    std::stringstream buffer;
    save_model(trained_mart(kind), buffer);
    artifact = buffer.str();
  }
  return artifact;
}

void expect_load_fails(const std::string& text, const std::string& needle) {
  std::stringstream in(text);
  try {
    load_model(in);
    FAIL() << "load_model accepted a corrupted artifact";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Rebuilds a syntactically valid envelope (size + FNV-1a checksum) around a
/// tampered payload, so the corruption reaches the section parsers instead
/// of tripping the checksum gate.
std::string reseal(const std::string& payload) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(payload)));
  std::ostringstream out;
  out << "stencilmart-model-v1\npayload " << payload.size() << '\n'
      << payload << "checksum " << digest << '\n';
  return out.str();
}

/// The payload bytes of the reference artifact of `kind`.
std::string reference_payload(RegressorKind kind = RegressorKind::kGbr) {
  const std::string& artifact = reference_artifact(kind);
  const std::size_t header_end = artifact.find('\n', artifact.find("payload"));
  const std::size_t checksum_pos = artifact.rfind("checksum ");
  return artifact.substr(header_end + 1, checksum_pos - header_end - 1);
}

/// The per-GPU classifiers of `mart`'s artifact, read back from its
/// classifier section.
std::vector<ml::GbdtClassifier> saved_classifiers(const StencilMart& mart) {
  std::stringstream buffer;
  save_model(mart, buffer);
  const std::string artifact = buffer.str();
  util::TokenReader in(
      std::string_view(artifact).substr(artifact.find("\nclassifiers ") + 1));
  in.expect_word("classifiers", "classifier section");
  std::vector<ml::GbdtClassifier> classifiers(in.read_size("classifier count"));
  for (auto& clf : classifiers) clf = ml::GbdtClassifier::load(in);
  return classifiers;
}

// --- unit label: round trips pinned to one thread. ---

TEST(ModelArtifact, GbrRoundTripIsBitIdenticalSerial) {
  const util::SerialSection serial;
  check_round_trip(RegressorKind::kGbr);
}

TEST(ModelArtifact, MlpRoundTripIsBitIdenticalSerial) {
  const util::SerialSection serial;
  check_round_trip(RegressorKind::kMlp);
}

TEST(ModelArtifact, ConvMlpRoundTripIsBitIdenticalSerial) {
  const util::SerialSection serial;
  check_round_trip(RegressorKind::kConvMlp);
}

TEST(ModelArtifact, EveryFixtureClassifierSplits) {
  // Round trips and load checks only exercise the classifier trees when the
  // fixture corpus is rich enough for every per-GPU ensemble to split.
  for (const RegressorKind kind :
       {RegressorKind::kGbr, RegressorKind::kMlp, RegressorKind::kConvMlp}) {
    const auto classifiers = saved_classifiers(trained_mart(kind));
    ASSERT_EQ(classifiers.size(), trained_mart(kind).dataset().gpus.size());
    for (std::size_t g = 0; g < classifiers.size(); ++g) {
      EXPECT_GT(classifiers[g].feature_span(), 0u)
          << to_string(kind) << " classifier " << g << " is all leaves";
    }
  }
}

TEST(ModelArtifact, FileRoundTrip) {
  const std::string path = testing::TempDir() + "smart_model_test.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  const StencilMart loaded = load_model(path);
  EXPECT_TRUE(loaded.trained());
  const auto pattern = stencil::make_star(3, 2);
  const OcAdvice a =
      advise_one(trained_mart(RegressorKind::kGbr), pattern, "V100").advice;
  const OcAdvice b = advise_one(loaded, pattern, "V100").advice;
  EXPECT_EQ(a.oc.name(), b.oc.name());
  expect_bitwise(a.predicted_time_ms, b.predicted_time_ms);
  std::remove(path.c_str());
}

TEST(ModelArtifact, UntrainedSaveThrows) {
  StencilMart mart(small_config(RegressorKind::kGbr));
  std::stringstream buffer;
  EXPECT_THROW(save_model(mart, buffer), std::logic_error);
}

TEST(ModelArtifact, TrainOnEmptyCorpusThrows) {
  StencilMart mart(small_config(RegressorKind::kGbr));
  EXPECT_THROW(mart.train(ProfileDataset{}), std::invalid_argument);
}

TEST(ModelArtifact, MissingFileThrows) {
  EXPECT_THROW(load_model("/nonexistent/model.smart"), std::runtime_error);
  EXPECT_THROW(load_model(testing::TempDir()), std::runtime_error);
}

TEST(ModelArtifact, RejectsBadMagic) {
  expect_load_fails("definitely-not-a-model\n", "bad magic");
}

TEST(ModelArtifact, RejectsEmptyStream) {
  expect_load_fails("", "empty stream");
}

TEST(ModelArtifact, RejectsUnsupportedVersion) {
  std::string text = reference_artifact();
  const std::string from = "stencilmart-model-v1";
  text.replace(0, from.size(), "stencilmart-model-v999");
  expect_load_fails(text, "unsupported model format version");
}

TEST(ModelArtifact, RejectsTruncatedPayload) {
  const std::string& artifact = reference_artifact();
  expect_load_fails(artifact.substr(0, artifact.size() / 2), "truncated");
}

TEST(ModelArtifact, RejectsFlippedChecksumByte) {
  std::string text = reference_artifact();
  const std::size_t pos = text.rfind("checksum ") + 9;
  text[pos] = text[pos] == 'f' ? '0' : 'f';
  expect_load_fails(text, "checksum mismatch");
}

TEST(ModelArtifact, RejectsFlippedPayloadByte) {
  std::string text = reference_artifact();
  // Flip one byte in the middle of the payload; the checksum gate must
  // reject it before any section parser runs.
  const std::size_t pos = text.size() / 2;
  text[pos] = text[pos] == 'x' ? 'y' : 'x';
  expect_load_fails(text, "checksum mismatch");
}

TEST(ModelArtifact, RejectsNanWeightEvenWithValidChecksum) {
  std::string payload = reference_payload();
  // Replace the first hexfloat token with "nan" and re-seal the envelope:
  // the strict readers must still refuse the non-finite weight.
  std::size_t pos = payload.find(" 0x");
  if (pos == std::string::npos) pos = payload.find(" -0x");
  ASSERT_NE(pos, std::string::npos);
  const std::size_t end = payload.find_first_of(" \n", pos + 1);
  ASSERT_NE(end, std::string::npos);
  payload.replace(pos, end - pos, " nan");
  std::stringstream in(reseal(payload));
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelArtifact, RejectsTrailingPayloadData) {
  expect_load_fails(reseal(reference_payload() + "bogus 1 2\n"),
                    "trailing data");
}

/// The reference artifact with the first tree after `section` replaced by a
/// well-formed one-split tree on `feature`, re-sealed so it passes the
/// envelope: only the feature index is wrong.
std::string with_split_feature(const std::string& section, long long feature) {
  std::string payload = reference_payload();
  const std::size_t begin = payload.find("\ntree ", payload.find(section)) + 1;
  std::istringstream header(payload.substr(begin));
  std::string word;
  std::size_t nodes = 0;
  std::size_t gains = 0;
  int depth = 0;
  header >> word >> nodes >> depth >> gains;
  std::size_t end = begin;
  for (std::size_t line = 0; line < 1 + nodes + gains; ++line) {
    end = payload.find('\n', end) + 1;
  }
  const std::string split_tree =
      "tree 3 1 0\n" + std::to_string(feature) +
      " 0x0p+0 1 2 0x0p+0\n-1 0x0p+0 -1 -1 0x0p+0\n-1 0x0p+0 -1 -1 0x0p+0\n";
  payload.replace(begin, end - begin, split_tree);
  return reseal(payload);
}

/// A mutant artifact must be refused by load_model (`needle` names why), by
/// the one-shot CLI (a runtime error: rc 1, one line) and by a serve reload
/// (err reply, epoch unchanged) — never crash, read out of bounds or
/// allocate for a forged size.
void check_rejected_everywhere(const std::string& mutant,
                               const std::string& needle) {
  expect_load_fails(mutant, needle);

  const std::string path = testing::TempDir() + "smart_artifact_mutant.smart";
  {
    std::ofstream out(path);
    out << mutant;
  }
  std::ostringstream cli_out;
  EXPECT_THROW(cli::run_command(cli::parse_command_line(
                                    {"advise", "--model", path, "--dims", "3",
                                     "--shape", "star", "--order", "2"}),
                                cli_out),
               std::runtime_error);
  std::remove(path.c_str());

  const StencilMart& serving = trained_mart(RegressorKind::kGbr);
  AdvisorServer server(
      ModelSnapshot{std::shared_ptr<const StencilMart>(
                        &serving, [](const StencilMart*) {}),
                    "v1", "c1"},
      {}, [&mutant] {
        std::stringstream in(mutant);
        return ModelSnapshot{
            std::make_shared<const StencilMart>(load_model(in)), "v2", "c2"};
      });
  std::vector<std::string> replies;
  server.submit("reload r1",
                [&replies](const std::string& line) { replies.push_back(line); });
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].rfind("err r1 reload failed: ", 0), 0u) << replies[0];
  EXPECT_NE(replies[0].find(needle), std::string::npos) << replies[0];
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.model_snapshot().version, "v1");
}

/// A split feature past the row end must be refused everywhere.
void check_split_feature_rejected(const std::string& section,
                                  const std::string& needle,
                                  std::initializer_list<long long> features) {
  for (const long long feature : features) {
    SCOPED_TRACE("feature " + std::to_string(feature));
    check_rejected_everywhere(
        with_split_feature(section, feature),
        needle + " splits on feature " + std::to_string(feature));
  }
}

TEST(ModelArtifact, RejectsClassifierSplitFeaturePastRowEnd) {
  // The stencil feature row is 11 wide: 40 reads past it, 1e8 far past.
  check_split_feature_rejected("\nclassifiers ", "classifier 0",
                               {11, 40, 100000000});
  // Control: the same tree on the row's last feature loads.
  std::stringstream in(with_split_feature("\nclassifiers ", 10));
  EXPECT_NO_THROW(load_model(in));
}

TEST(ModelArtifact, RejectsGbrSplitFeaturePastRowEnd) {
  // The GBR row is 34 wide.
  check_split_feature_rejected("\nfitted ", "GBR tree", {34, 1000, 100000000});
  std::stringstream in(with_split_feature("\nfitted ", 33));
  EXPECT_NO_THROW(load_model(in));
}

/// The reference artifact with config field `index` (0 = dims,
/// 1 = max_order) replaced by `value`, re-sealed.
std::string with_config_field(std::size_t index, const std::string& value) {
  std::string payload = reference_payload();
  std::size_t begin = payload.find(' ') + 1;  // after "config"
  for (std::size_t i = 0; i < index; ++i) begin = payload.find(' ', begin) + 1;
  payload.replace(begin, payload.find(' ', begin) - begin, value);
  return reseal(payload);
}

TEST(ModelArtifact, RejectsConfigValuesPastTheGeneratorsLimits) {
  check_rejected_everywhere(with_config_field(0, "9"),
                            "config dims out of range");
  // max_order sizes the feature layout: an unchecked 30000000 loads and
  // then dies with std::bad_alloc on the first advise.
  for (const char* order : {"30000000", "5", "0", "-1"}) {
    SCOPED_TRACE(order);
    check_rejected_everywhere(with_config_field(1, order),
                              "config max_order out of range");
  }
  // Control: the generator's own range loads.
  std::stringstream in(with_config_field(1, "4"));
  EXPECT_NO_THROW(load_model(in));
}

TEST(ModelArtifact, RejectsForgedSectionCounts) {
  // Section counts must never size an allocation: sized from them, a
  // re-sealed classifier class count of 300000000 allocates 2.4 GB, and an
  // OC-merger OC count of 300000000 1.2 GB, before the parse fails.
  std::string payload = reference_payload();
  const std::size_t gbc =
      payload.find("\ngbc ", payload.find("\nclassifiers ")) + 1;
  const std::size_t count = payload.find('\n', gbc) + 1;
  payload.replace(count, payload.find(' ', count) - count, "300000000");
  check_rejected_everywhere(reseal(payload), "gbc base score");

  const std::pair<std::size_t, const char*> merger_counts[] = {
      {1, "ocmerger representative"},                // group count
      {2, "OcMerger::load: group id out of range"},  // OC count
  };
  for (const auto& [field, needle] : merger_counts) {
    SCOPED_TRACE(needle);
    payload = reference_payload();
    std::size_t begin = payload.find("\nocmerger ") + 1;
    for (std::size_t i = 0; i < field; ++i) {
      begin = payload.find(' ', begin) + 1;
    }
    payload.replace(begin, payload.find(' ', begin) - begin, "300000000");
    check_rejected_everywhere(reseal(payload), needle);
  }
}

/// `payload` with the first `count_words` tokens after `tag` (the tag's
/// counts) replaced by `counts`, re-sealed.
std::string with_counts(std::string payload, const std::string& tag,
                        int count_words, const std::string& counts) {
  const std::size_t begin = payload.find("\n" + tag + " ") + tag.size() + 2;
  std::size_t end = begin;
  for (int i = 0; i < count_words; ++i) end = payload.find_first_of(" \n", end + 1);
  payload.replace(begin, end - begin, counts);
  return reseal(payload);
}

/// A mutant whose forged count would size `forged_bytes` if it were trusted:
/// rejected everywhere, and load_model allocates nothing near that size.
void check_forged_count_rejected(const std::string& mutant,
                                 const std::string& needle,
                                 std::size_t forged_bytes) {
  check_rejected_everywhere(mutant, needle);
  const std::size_t largest = largest_allocation_during([&mutant] {
    std::stringstream in(mutant);
    EXPECT_THROW(load_model(in), std::runtime_error);
  });
  EXPECT_LT(largest, forged_bytes / 8) << "load_model allocated " << largest;
}

TEST(ModelArtifact, RejectsForgedMatrixShapeWithoutAllocating) {
  const std::string payload = reference_payload(RegressorKind::kMlp);
  // 2^32 x 2^32 wraps rows*cols to 0: trusted, it loads an empty weight
  // matrix that inference indexes out of bounds.
  check_rejected_everywhere(with_counts(payload, "mat", 2, "4294967296 4294967296"),
                            "Matrix::load: rows*cols overflows");
  // 50M x 1 floats (200 MB) do not overflow; they exceed the payload.
  check_forged_count_rejected(with_counts(payload, "mat", 2, "50000000 1"),
                              "exceed the remaining input", 200000000);
}

TEST(ModelArtifact, RejectsForgedScalerWidthWithoutAllocating) {
  const std::string payload = reference_payload(RegressorKind::kMlp);
  // Trusted, 2^40 throws std::bad_alloc and 50M allocates 200 MB before
  // the parse fails.
  check_rejected_everywhere(with_counts(payload, "scaler", 1, "1099511627776"),
                            "MaxAbsScaler::load: width 1099511627776 exceeds");
  check_forged_count_rejected(with_counts(payload, "scaler", 1, "50000000"),
                              "MaxAbsScaler::load: width 50000000 exceeds",
                              200000000);
}

TEST(ModelArtifact, RejectsMergerOverAnotherOcTable) {
  // A self-consistent grouping of 2 OCs: every group id and representative
  // is valid, but the table is not this build's.
  std::string payload = reference_payload();
  const std::size_t begin = payload.find("\nocmerger ") + 1;
  payload.replace(begin, payload.find('\n', begin) - begin, "ocmerger 1 2 0 0 0");
  check_rejected_everywhere(reseal(payload),
                            "OcMerger::load: OC count 2 does not match this "
                            "build's OC table");
}

TEST(ModelArtifact, PayloadParseErrorsCarrySourceAndByteOffset) {
  // Satellite contract: a malformed (but checksum-valid) payload reports
  // "<source>: payload byte offset N: ..." so the failing section can be
  // located inside a multi-kilobyte artifact.
  std::stringstream in(reseal(reference_payload() + "bogus 1 2\n"));
  try {
    load_model(in, "model.smart");
    FAIL() << "load_model accepted trailing payload data";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("model.smart: payload byte offset "), 0u) << what;
    EXPECT_NE(what.find("trailing data"), std::string::npos) << what;
  }
  // Envelope errors (pre-payload) stay un-prefixed: the artifact, not a
  // section inside it, is the problem.
  expect_load_fails("definitely-not-a-model\n", "bad magic");
}

TEST(ModelArtifact, InspectModelReportsVersionAndChecksum) {
  // inspect_model validates the envelope (the serve banner/healthz path)
  // without parsing the payload; version and checksum must match the
  // artifact bytes exactly.
  const std::string& artifact = reference_artifact();
  std::stringstream in(artifact);
  const ModelArtifactInfo info = inspect_model(in);
  EXPECT_EQ(info.version, "stencilmart-model-v1");
  const std::size_t pos = artifact.rfind("checksum ") + 9;
  EXPECT_EQ(info.checksum, artifact.substr(pos, 16));
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a64(reference_payload())));
  EXPECT_EQ(info.checksum, digest);

  // Path overload reads the same envelope from disk.
  const std::string path = testing::TempDir() + "smart_inspect_test.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  const ModelArtifactInfo from_file = inspect_model(path);
  EXPECT_EQ(from_file.version, info.version);
  EXPECT_EQ(from_file.checksum, info.checksum);
  std::remove(path.c_str());
}

TEST(ModelArtifact, InspectModelRejectsEnvelopeCorruption) {
  const auto expect_inspect_fails = [](const std::string& text,
                                       const std::string& needle) {
    std::stringstream in(text);
    try {
      inspect_model(in);
      FAIL() << "inspect_model accepted a corrupted artifact";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  expect_inspect_fails("definitely-not-a-model\n", "bad magic");
  expect_inspect_fails("", "empty stream");
  const std::string& artifact = reference_artifact();
  expect_inspect_fails(artifact.substr(0, artifact.size() / 2), "truncated");
  std::string flipped = artifact;
  const std::size_t pos = flipped.rfind("checksum ") + 9;
  flipped[pos] = flipped[pos] == 'f' ? '0' : 'f';
  expect_inspect_fails(flipped, "checksum mismatch");
  EXPECT_THROW(inspect_model("/nonexistent/model.smart"), std::runtime_error);
}

TEST(ModelArtifact, AtomicSaveLeavesDestinationIntactOnFailure) {
  const std::string path = testing::TempDir() + "smart_atomic_model.smart";
  save_model(trained_mart(RegressorKind::kGbr), path);
  {
    const util::ScopedFaultInjection faults("seed=1;io:p=1");
    EXPECT_THROW(save_model(trained_mart(RegressorKind::kGbr), path),
                 std::runtime_error);
  }
  const StencilMart loaded = load_model(path);  // still the intact artifact
  EXPECT_TRUE(loaded.trained());
  std::remove(path.c_str());
}

TEST(ModelArtifact, TrainFromCorpusUsesMeasuredTimes) {
  // Make OC 7 uniformly ~1000x faster than everything the simulator would
  // produce. If train(dataset) actually consumes the corpus's measured
  // times (instead of silently re-profiling, the pre-fix behavior of
  // `advise --corpus`), every advised stencil lands in OC 7's merged group.
  ProfileDataset mutated = artifact_corpus();
  constexpr std::size_t kFastOc = 7;
  for (auto& per_gpu : mutated.times) {
    for (auto& per_oc : per_gpu) {
      for (std::size_t k = 0; k < per_oc[kFastOc].size(); ++k) {
        per_oc[kFastOc][k] = 1e-6 * static_cast<double>(k + 1);
      }
    }
  }
  StencilMart mart(small_config(RegressorKind::kGbr));
  mart.train(mutated);
  // The stored dataset is the corpus, bit for bit — not a fresh profile.
  expect_bitwise(mart.dataset().times[0][0][kFastOc][0], 1e-6);
  const int fast_group = mart.merger().groups()[kFastOc];
  for (std::size_t s = 0; s < mutated.stencils.size(); ++s) {
    const OcAdvice advice = advise_one(mart, mutated.stencils[s], "V100").advice;
    EXPECT_EQ(advice.group, fast_group);
  }
}

// --- parallel label: the same round-trip contracts at default threads. ---

TEST(ParallelModelArtifact, GbrRoundTripIsBitIdentical) {
  check_round_trip(RegressorKind::kGbr);
}

TEST(ParallelModelArtifact, MlpRoundTripIsBitIdentical) {
  check_round_trip(RegressorKind::kMlp);
}

TEST(ParallelModelArtifact, ConvMlpRoundTripIsBitIdentical) {
  check_round_trip(RegressorKind::kConvMlp);
}

}  // namespace
}  // namespace smart::core
