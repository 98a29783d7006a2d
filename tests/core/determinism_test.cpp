// Locks in the task-pool determinism contract at the pipeline level: the
// profiling corpus, the tuners and the trained artifact must come out
// bit-identical whether the loops run on one thread or on the whole pool. SerialSection
// forces the 1-thread path in-process, so both runs share one binary and
// one global pool (see util/task_pool.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/mart.hpp"
#include "core/profile_dataset.hpp"
#include "core/serialize.hpp"
#include "gpusim/tuner.hpp"
#include "stencil/pattern.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

ProfileConfig small_config(int dims) {
  ProfileConfig cfg;
  cfg.dims = dims;
  cfg.num_stencils = 10;
  cfg.samples_per_oc = 3;
  cfg.seed = 424242;
  return cfg;
}

/// Bitwise comparison that treats any-NaN-pattern as its canonical bits —
/// the same canonicalization dataset_checksum applies.
std::uint64_t time_bits(double t) {
  return std::isnan(t) ? 0x7ff8000000000000ULL : std::bit_cast<std::uint64_t>(t);
}

TEST(Determinism, ProfileDatasetBitIdenticalSerialVsParallel) {
  const auto parallel = build_profile_dataset(small_config(3));
  ProfileDataset serial;
  {
    util::SerialSection force_serial;
    serial = build_profile_dataset(small_config(3));
  }

  ASSERT_EQ(parallel.stencils.size(), serial.stencils.size());
  for (std::size_t s = 0; s < parallel.stencils.size(); ++s) {
    EXPECT_EQ(parallel.stencils[s], serial.stencils[s]);
    ASSERT_EQ(parallel.settings[s].size(), serial.settings[s].size());
    for (std::size_t oc = 0; oc < parallel.settings[s].size(); ++oc) {
      EXPECT_EQ(parallel.settings[s][oc], serial.settings[s][oc]);
    }
    for (std::size_t g = 0; g < parallel.num_gpus(); ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        const auto& pt = parallel.times[s][g][oc];
        const auto& st = serial.times[s][g][oc];
        ASSERT_EQ(pt.size(), st.size());
        for (std::size_t k = 0; k < pt.size(); ++k) {
          ASSERT_EQ(time_bits(pt[k]), time_bits(st[k]))
              << "stencil " << s << " gpu " << g << " oc " << oc << " sample "
              << k;
        }
      }
    }
  }
}

TEST(Determinism, DatasetChecksumThreadCountInvariant) {
  const auto parallel = build_profile_dataset(small_config(2));
  std::uint64_t serial_sum = 0;
  {
    util::SerialSection force_serial;
    serial_sum = dataset_checksum(build_profile_dataset(small_config(2)));
  }
  EXPECT_EQ(dataset_checksum(parallel), serial_sum);
  // Stable across repeated parallel builds too.
  EXPECT_EQ(dataset_checksum(build_profile_dataset(small_config(2))),
            serial_sum);
}

MartConfig train_config(RegressorKind kind) {
  MartConfig cfg;
  cfg.regressor = kind;
  cfg.regression.instance_cap = 1500;
  cfg.regression.epochs = 2;
  cfg.regression.mlp_hidden_layers = 2;
  cfg.regression.mlp_width = 16;
  return cfg;
}

/// save_model bytes of a mart trained on `corpus`, or the train error text.
std::string train_and_save(const ProfileDataset& corpus, RegressorKind kind) {
  StencilMart mart(train_config(kind));
  try {
    mart.train(corpus);
  } catch (const std::runtime_error& e) {
    return std::string("error: ") + e.what();
  }
  std::ostringstream out;
  save_model(mart, out);
  return out.str();
}

TEST(Determinism, TrainedArtifactThreadCountInvariant) {
  // The merger, the per-GPU classifiers and the regressor fit as concurrent
  // pool tasks; the artifact must not depend on how they interleave.
  ProfileConfig cfg = small_config(2);
  cfg.num_stencils = 40;
  const ProfileDataset corpus = build_profile_dataset(cfg);
  for (const RegressorKind kind : {RegressorKind::kGbr, RegressorKind::kMlp}) {
    const std::string pooled = train_and_save(corpus, kind);
    std::string serial;
    {
      util::SerialSection force_serial;
      serial = train_and_save(corpus, kind);
    }
    ASSERT_EQ(pooled.rfind("error: ", 0), std::string::npos) << pooled;
    EXPECT_EQ(pooled.size(), serial.size()) << to_string(kind);
    EXPECT_TRUE(pooled == serial) << to_string(kind);
    EXPECT_TRUE(pooled == train_and_save(corpus, kind)) << to_string(kind);
  }

  // GPUs 1 and 2 have no labels: the error names the first of them, before
  // any fit starts, at any thread count.
  ASSERT_GE(corpus.num_gpus(), 3u);
  ProfileDataset unlabelled = corpus;
  for (auto& per_gpu : unlabelled.times) {
    for (const std::size_t g : {1u, 2u}) {
      for (auto& samples : per_gpu[g]) {
        samples.assign(samples.size(),
                       std::numeric_limits<double>::quiet_NaN());
      }
    }
  }
  const std::string want =
      "error: StencilMart::train: no labelled stencils for GPU '" +
      corpus.gpus[1].name + "' (every work unit crashed or was quarantined)";
  EXPECT_EQ(train_and_save(unlabelled, RegressorKind::kGbr), want);
  util::SerialSection force_serial;
  EXPECT_EQ(train_and_save(unlabelled, RegressorKind::kGbr), want);
}

TEST(Determinism, RandomSearchTunerTuneAllThreadCountInvariant) {
  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, 6);
  const auto pattern = stencil::make_star(3, 2);
  const auto problem = gpusim::ProblemSize::paper_default(3);
  const auto& gpu = gpusim::gpu_by_name("V100");

  util::Rng rng_par(77);
  const auto parallel = tuner.tune_all(pattern, problem, gpu, rng_par);

  std::vector<gpusim::TunedResult> serial;
  {
    util::SerialSection force_serial;
    util::Rng rng_ser(77);
    serial = tuner.tune_all(pattern, problem, gpu, rng_ser);
  }

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const auto& a = parallel[i];
    const auto& b = serial[i];
    EXPECT_EQ(a.oc.name(), b.oc.name());
    EXPECT_EQ(a.samples_tried, b.samples_tried);
    EXPECT_EQ(a.samples_crashed, b.samples_crashed);
    ASSERT_EQ(a.best_setting.has_value(), b.best_setting.has_value());
    if (a.best_setting) {
      EXPECT_EQ(*a.best_setting, *b.best_setting);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.best_time_ms),
                std::bit_cast<std::uint64_t>(b.best_time_ms));
    }
    ASSERT_EQ(a.measurements.size(), b.measurements.size());
    for (std::size_t k = 0; k < a.measurements.size(); ++k) {
      EXPECT_EQ(a.measurements[k].first, b.measurements[k].first);
      EXPECT_EQ(time_bits(a.measurements[k].second),
                time_bits(b.measurements[k].second));
    }
  }
  // Both rngs must have advanced identically, so a follow-up draw agrees.
  util::Rng probe_a(77);
  util::Rng probe_b(77);
  {
    auto r1 = tuner.tune_all(pattern, problem, gpu, probe_a);
    util::SerialSection force_serial;
    auto r2 = tuner.tune_all(pattern, problem, gpu, probe_b);
    (void)r1;
    (void)r2;
  }
  EXPECT_EQ(probe_a.uniform_int(0, 1 << 30), probe_b.uniform_int(0, 1 << 30));
}

}  // namespace
}  // namespace smart::core
