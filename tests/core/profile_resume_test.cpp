// The fault-tolerance invariant of the profiling sweep (DESIGN.md §11):
// a run interrupted at ANY point and resumed from its journal — at any
// thread count — produces a corpus bit-identical to an uninterrupted run,
// and measurements that survive transient fault injection are bit-identical
// to a fault-free run. scripts/check.sh additionally proves the kill -9
// variant end-to-end through smartctl.
#include "core/profile_dataset.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/mart.hpp"
#include "core/profile_journal.hpp"
#include "core/serialize.hpp"
#include "util/fault.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::core {
namespace {

namespace fs = std::filesystem;

ProfileConfig small_config() {
  ProfileConfig cfg;
  cfg.dims = 2;
  cfg.num_stencils = 6;
  cfg.samples_per_oc = 2;
  cfg.seed = 99;
  return cfg;
}

std::string serialized(const ProfileDataset& ds) {
  std::ostringstream out;
  save_dataset(ds, out);
  return out.str();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class ProfileResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("smart_resume_" +
            std::to_string(static_cast<long long>(::getpid())) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string journal() const { return (dir_ / "journal.txt").string(); }

  fs::path dir_;
};

TEST_F(ProfileResumeTest, ResumeWithoutJournalPathRejected) {
  ProfileRunOptions opts;
  opts.resume = true;
  EXPECT_THROW(build_profile_dataset(small_config(), opts),
               std::invalid_argument);
}

TEST_F(ProfileResumeTest, RunOptionsDoNotPerturbTheCorpus) {
  const auto baseline = build_profile_dataset(small_config());
  ProfileRunOptions opts;
  opts.journal_path = journal();
  opts.retries = 7;
  const auto journaled = build_profile_dataset(small_config(), opts);
  EXPECT_EQ(dataset_checksum(journaled), dataset_checksum(baseline));
  EXPECT_EQ(serialized(journaled), serialized(baseline));
  EXPECT_TRUE(fs::exists(journal()));
}

TEST_F(ProfileResumeTest, ResumeFromCompleteJournalReplaysEverything) {
  const auto baseline = build_profile_dataset(small_config());
  ProfileRunOptions opts;
  opts.journal_path = journal();
  build_profile_dataset(small_config(), opts);

  opts.resume = true;
  const auto resumed = build_profile_dataset(small_config(), opts);
  EXPECT_EQ(resumed.resumed_units,
            baseline.stencils.size() * ProfileDataset::num_ocs() *
                baseline.num_gpus());
  EXPECT_EQ(serialized(resumed), serialized(baseline));
}

TEST_F(ProfileResumeTest, ResumeFromMissingJournalStartsFresh) {
  const auto baseline = build_profile_dataset(small_config());
  ProfileRunOptions opts;
  opts.journal_path = journal();
  opts.resume = true;  // no journal on disk yet: must behave like a fresh run
  const auto ds = build_profile_dataset(small_config(), opts);
  EXPECT_EQ(ds.resumed_units, 0u);
  EXPECT_EQ(serialized(ds), serialized(baseline));
}

// The tentpole invariant: cut the journal anywhere — including mid-line, as
// a kill -9 during an append would — and the resumed corpus is bit-identical
// to the uninterrupted one, serial and pooled alike.
TEST_F(ProfileResumeTest, TruncatedJournalResumesBitIdentical) {
  const auto baseline = build_profile_dataset(small_config());
  const std::string golden = serialized(baseline);
  ProfileRunOptions opts;
  opts.journal_path = journal();
  build_profile_dataset(small_config(), opts);
  const std::string full = read_file(journal());

  // Three cuts: after an early record, mid-file on a line boundary, and
  // mid-line (a partial tail with no trailing newline).
  const std::size_t first_nl = full.find('\n', full.find("unit"));
  const std::size_t cuts[] = {first_nl + 1, full.size() / 2 - 17,
                              full.size() - 42};
  for (const std::size_t cut : cuts) {
    ASSERT_GT(cut, 0u);
    ASSERT_LT(cut, full.size());
    for (const bool serial : {false, true}) {
      {
        std::ofstream out(journal(), std::ios::binary | std::ios::trunc);
        out << full.substr(0, cut);
      }
      ProfileRunOptions resume_opts;
      resume_opts.journal_path = journal();
      resume_opts.resume = true;
      ProfileDataset resumed;
      if (serial) {
        const util::SerialSection guard;
        resumed = build_profile_dataset(small_config(), resume_opts);
      } else {
        resumed = build_profile_dataset(small_config(), resume_opts);
      }
      EXPECT_EQ(serialized(resumed), golden)
          << "cut=" << cut << " serial=" << serial;
      // After the resume completed, the journal holds the whole run again
      // and a second resume replays it without re-measuring anything.
      ProfileDataset again = build_profile_dataset(small_config(), resume_opts);
      EXPECT_EQ(again.resumed_units, baseline.stencils.size() *
                                         ProfileDataset::num_ocs() *
                                         baseline.num_gpus());
      EXPECT_EQ(serialized(again), golden);
    }
  }
}

TEST_F(ProfileResumeTest, ResumeRejectsJournalFromDifferentRun) {
  ProfileRunOptions opts;
  opts.journal_path = journal();
  build_profile_dataset(small_config(), opts);

  ProfileConfig other = small_config();
  other.seed = 100;  // any identity difference must be rejected
  opts.resume = true;
  try {
    build_profile_dataset(other, opts);
    FAIL() << "expected a config-mismatch rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different profiling run"),
              std::string::npos);
  }
  // A different retry budget is part of the run identity too.
  ProfileRunOptions other_opts;
  other_opts.journal_path = journal();
  other_opts.resume = true;
  other_opts.retries = 9;
  EXPECT_THROW(build_profile_dataset(small_config(), other_opts),
               std::runtime_error);
}

// Fault decisions are pure hashes — retries consume no RNG state — so every
// measurement that survives transient faults is bit-identical to the
// fault-free run, and no unit is quarantined while the budget holds.
TEST_F(ProfileResumeTest, TransientFaultsRetryToFaultFreeResults) {
  const auto baseline = build_profile_dataset(small_config());
  const util::ScopedFaultInjection faults(
      "seed=13;measure:transient:p=0.1");  // fails=1 < default retries=2
  util::timing_reset();
  const auto ds = build_profile_dataset(small_config(), ProfileRunOptions{});
  EXPECT_TRUE(ds.quarantined.empty());
  EXPECT_EQ(serialized(ds), serialized(baseline));

  bool saw_retry_phase = false;
  for (const auto& [phase, stats] : util::timing_snapshot()) {
    if (phase == "profile.retry") {
      saw_retry_phase = true;
      EXPECT_GT(stats.tasks, 0u);
    }
  }
  EXPECT_TRUE(saw_retry_phase) << "p=0.1 over 720 units must retry some";
}

TEST_F(ProfileResumeTest, ExhaustedTransientBudgetQuarantinesDeterministically) {
  const util::ScopedFaultInjection faults(
      "seed=13;measure:transient:p=0.15:fails=5");
  ProfileRunOptions opts;
  opts.retries = 1;  // 2 attempts < fails=5: every faulty unit exhausts
  const auto pooled = build_profile_dataset(small_config(), opts);
  ASSERT_FALSE(pooled.quarantined.empty());
  for (const auto& q : pooled.quarantined) {
    EXPECT_TRUE(q.reason.starts_with("transient fault budget exhausted"))
        << q.reason;
    for (const double t : pooled.times[q.stencil][q.gpu][q.oc]) {
      EXPECT_TRUE(std::isnan(t));
    }
  }
  ProfileDataset serial;
  {
    const util::SerialSection guard;
    serial = build_profile_dataset(small_config(), opts);
  }
  EXPECT_EQ(serial.quarantined, pooled.quarantined);
  EXPECT_EQ(serialized(serial), serialized(pooled));
  EXPECT_EQ(dataset_checksum(serial), dataset_checksum(pooled));
}

TEST_F(ProfileResumeTest, PermanentFaultsQuarantineWithoutRetrying) {
  const util::ScopedFaultInjection faults("seed=4;measure:permanent:p=0.1");
  util::timing_reset();
  const auto ds = build_profile_dataset(small_config(), ProfileRunOptions{});
  ASSERT_FALSE(ds.quarantined.empty());
  for (const auto& q : ds.quarantined) {
    EXPECT_NE(q.reason.find("permanent"), std::string::npos);
  }
  for (const auto& [phase, stats] : util::timing_snapshot()) {
    EXPECT_NE(phase, "profile.retry") << "permanent faults must not retry";
  }
  // Quarantined units change the checksum (they carry records), and the
  // records are sorted by (stencil, oc, gpu) regardless of finish order.
  for (std::size_t i = 1; i < ds.quarantined.size(); ++i) {
    const auto& a = ds.quarantined[i - 1];
    const auto& b = ds.quarantined[i];
    EXPECT_TRUE(std::tie(a.stencil, a.oc, a.gpu) <
                std::tie(b.stencil, b.oc, b.gpu));
  }
}

TEST_F(ProfileResumeTest, QuarantineSurvivesSaveLoadRoundTrip) {
  const util::ScopedFaultInjection faults("seed=4;measure:permanent:p=0.1");
  const auto ds = build_profile_dataset(small_config(), ProfileRunOptions{});
  ASSERT_FALSE(ds.quarantined.empty());
  std::stringstream stream;
  save_dataset(ds, stream);
  const auto loaded = load_dataset(stream);
  EXPECT_EQ(loaded.quarantined, ds.quarantined);
  EXPECT_EQ(dataset_checksum(loaded), dataset_checksum(ds));
}

// A worker crash is NOT handled by the retry loop: it aborts the run. The
// journal still recorded the failed attempt plus every completed unit, so
// resuming repeatedly drains the crashes and converges on the fault-free
// corpus.
TEST_F(ProfileResumeTest, WorkerCrashAbortsThenResumeLoopConverges) {
  const auto baseline = build_profile_dataset(small_config());
  const util::ScopedFaultInjection faults("seed=6;worker:p=0.01");
  ProfileRunOptions opts;
  opts.journal_path = journal();
  opts.resume = true;

  ProfileDataset ds;
  bool crashed_at_least_once = false;
  int runs = 0;
  for (;; ++runs) {
    ASSERT_LT(runs, 100) << "resume loop did not converge";
    try {
      ds = build_profile_dataset(small_config(), opts);
      break;
    } catch (const util::WorkerCrashError&) {
      crashed_at_least_once = true;  // journaled; the next resume gets past it
    }
  }
  EXPECT_TRUE(crashed_at_least_once) << "p=0.01 over 720 units must crash";
  EXPECT_TRUE(ds.quarantined.empty());
  EXPECT_EQ(serialized(ds), serialized(baseline));
}

TEST_F(ProfileResumeTest, StencilMartTrainsOnPartiallyQuarantinedCorpus) {
  ProfileDataset corpus;
  {
    const util::ScopedFaultInjection faults("seed=4;measure:permanent:p=0.05");
    ProfileConfig cfg = small_config();
    cfg.num_stencils = 24;
    cfg.samples_per_oc = 3;
    cfg.seed = 808;
    corpus = build_profile_dataset(cfg, ProfileRunOptions{});
  }
  ASSERT_FALSE(corpus.quarantined.empty());
  MartConfig mc;
  mc.profile = corpus.config;
  mc.regression.instance_cap = 1500;
  mc.tuning_samples = 8;
  StencilMart mart(mc);
  mart.train(corpus);  // quarantined units are NaN — the crashed convention
  EXPECT_TRUE(mart.trained());
  const AdviseBatchItem item{stencil::make_star(2, 2), "V100"};
  const AdviseBatchResult result = mart.advise_batch({&item, 1})[0];
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(result.advice.oc.name().empty());
}

}  // namespace
}  // namespace smart::core
