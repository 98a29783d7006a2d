// Float32 ("relaxed") inference equivalence gates (DESIGN.md §13):
//
//  - f64/strict contract: the vectorized production path (fused Dense+ReLU
//    kernels, flattened GBDT walk) never changes a single output bit of any
//    regressor kind against a test-local scalar reference, serial or
//    parallel — the fusion and the flat layout are pure layout changes;
//  - f32/relaxed contract, per model kind: GBR stays bitwise EXACT (the
//    lockstep walk does the same comparisons and double accumulation);
//    MLP and ConvMLP are tolerance-equivalent (reassociated/FMA float
//    accumulation) with a per-prediction relative-error gate;
//  - f32 determinism: relaxed predictions are reproducible run-to-run and
//    batch-size invariant (batched == per-item, bitwise), which is what
//    lets the serve daemon keep its byte-determinism contract in f32;
//  - the serve layer's --precision plumbing: an AdvisorServer constructed
//    with ServeConfig::precision "f32" produces reply SETS byte-identical
//    across admission batch sizes, and rejects unknown precision names.
//
// Suite names map onto the ctest label groups (tests/CMakeLists.txt):
//   PrecisionEquivalence.*          -> unit      (under SerialSection)
//   ParallelPrecisionEquivalence.*  -> parallel  (default thread count)
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/advisor_server.hpp"
#include "core/mart.hpp"
#include "core/regression.hpp"
#include "ml/dataset.hpp"
#include "ml/gbdt.hpp"
#include "ml/models.hpp"
#include "ml/simd.hpp"
#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

const ProfileDataset& precision_dataset() {
  static const ProfileDataset ds = [] {
    ProfileConfig cfg;
    cfg.dims = 2;
    cfg.num_stencils = 8;
    cfg.samples_per_oc = 2;
    cfg.seed = 606;
    return build_profile_dataset(cfg);
  }();
  return ds;
}

RegressionTask& fitted_task(RegressorKind kind) {
  static std::vector<std::unique_ptr<RegressionTask>> tasks(3);
  auto& slot = tasks[static_cast<std::size_t>(kind)];
  if (!slot) {
    RegressionConfig cfg;
    cfg.epochs = 3;
    cfg.instance_cap = 400;
    slot = std::make_unique<RegressionTask>(precision_dataset(), cfg);
    slot->fit_full(kind);
  }
  return *slot;
}

std::vector<std::size_t> sample_idxs(const RegressionTask& task) {
  const auto starts = task.triple_starts();
  return {starts.begin(),
          starts.begin() + static_cast<std::ptrdiff_t>(
                               std::min<std::size_t>(30, starts.size()))};
}

/// Test-local scalar reference for a fitted task: re-reads the task's saved
/// model and predicts through the reference paths — the per-row pointer
/// walk for GBR, Sequential::forward() in inference mode for the nets —
/// on feature rows assembled from the task's encoding cache.
std::vector<double> reference_predictions(const RegressionTask& task,
                                          std::span<const std::size_t> idxs,
                                          std::size_t gpu) {
  util::TokenWriter writer;
  task.save_fitted(writer);
  util::TokenReader saved(writer.str());
  saved.expect_word("fitted", "reference");
  const RegressorKind kind =
      regressor_kind_from_string(std::string(saved.token("kind")));
  const ml::MaxAbsScaler scaler = ml::MaxAbsScaler::load(saved);

  const EncodingCache& cache = task.encoding_cache();
  std::vector<AuxRowKey> keys;
  for (const std::size_t idx : idxs) {
    const RegressionInstance& ins = task.instances()[idx];
    keys.push_back({ins.stencil, ins.oc, ins.setting, gpu});
  }
  ml::Matrix aux;
  cache.assemble_aux_rows(aux, keys, kind != RegressorKind::kConvMlp);

  std::vector<double> log_ms(idxs.size());
  if (kind == RegressorKind::kGbr) {
    const ml::GbdtRegressor gbr = ml::GbdtRegressor::load(saved);
    for (std::size_t i = 0; i < idxs.size(); ++i) {
      log_ms[i] = gbr.predict_row(aux.row(i));
    }
  } else {
    const auto load_net = [&saved] {
      ml::Sequential net = ml::Sequential::load(saved);
      net.set_training(false);
      return net;
    };
    ml::Matrix preds;
    if (kind == RegressorKind::kMlp) {
      saved.expect_word("nnreg", "reference");
      ml::load_train_config(saved);
      preds = load_net().forward(scaler.transform(aux));
    } else {
      saved.expect_word("convmlp", "reference");
      const std::size_t conv_out = saved.read_size("conv_out");
      const std::size_t mlp_out = saved.read_size("mlp_out");
      ml::load_train_config(saved);
      ml::Sequential conv = load_net();
      ml::Sequential mlp = load_net();
      ml::Sequential head = load_net();
      ml::Matrix tensors(idxs.size(), cache.tensor_dim());
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        const auto t = cache.tensor(keys[i].stencil);
        std::copy(t.begin(), t.end(), tensors.row(i).begin());
      }
      const ml::Matrix za = conv.forward(tensors);
      const ml::Matrix zb = mlp.forward(scaler.transform(aux));
      ml::Matrix joint(idxs.size(), conv_out + mlp_out);
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        std::copy(za.row(i).begin(), za.row(i).end(), joint.row(i).begin());
        std::copy(zb.row(i).begin(), zb.row(i).end(),
                  joint.row(i).begin() + static_cast<std::ptrdiff_t>(conv_out));
      }
      preds = head.forward(joint);
    }
    for (std::size_t i = 0; i < idxs.size(); ++i) log_ms[i] = preds.at(i, 0);
  }
  std::vector<double> out(idxs.size());
  for (std::size_t i = 0; i < idxs.size(); ++i) out[i] = std::exp2(log_ms[i]);
  return out;
}

/// The strict/f64 contract: the vectorized production path is bitwise
/// identical to the scalar reference path.
void check_f64_matches_reference(RegressorKind kind) {
  const RegressionTask& task = fitted_task(kind);
  const auto idxs = sample_idxs(task);
  const std::size_t gpu = 0;
  const std::vector<double> fused = task.predict_batch(idxs, gpu);
  const std::vector<double> unfused = reference_predictions(task, idxs, gpu);
  ASSERT_EQ(fused.size(), unfused.size());
  for (std::size_t i = 0; i < fused.size(); ++i) {
    expect_bitwise(fused[i], unfused[i]);
  }
}

/// The relaxed/f32 contract: GBR exact; NN kinds tolerance-gated; all kinds
/// reproducible and batch-size invariant in f32.
void check_f32_equivalence(RegressorKind kind) {
  const RegressionTask& task = fitted_task(kind);
  const auto idxs = sample_idxs(task);
  const std::size_t gpu = 1;
  const std::vector<double> strict = task.predict_batch(idxs, gpu);

  const ml::PrecisionSection relaxed(ml::Precision::kRelaxed);
  const std::vector<double> f32 = task.predict_batch(idxs, gpu);
  ASSERT_EQ(f32.size(), strict.size());
  for (std::size_t i = 0; i < f32.size(); ++i) {
    if (kind == RegressorKind::kGbr) {
      // Flattened traversal is exact: relaxed mode changes nothing for GBDT.
      expect_bitwise(f32[i], strict[i]);
    } else {
      // exp2(log-pred) turns absolute log2 error into relative ms error;
      // the kernel-level drift is a few float ulps per accumulation chain,
      // so 1e-3 relative is a wide yet meaningful gate.
      EXPECT_NEAR(f32[i], strict[i], 1e-3 * std::fabs(strict[i]))
          << to_string(kind) << " row " << i;
    }
  }

  // Reproducibility: a second relaxed run returns the same bits.
  const std::vector<double> f32_again = task.predict_batch(idxs, gpu);
  for (std::size_t i = 0; i < f32.size(); ++i) {
    expect_bitwise(f32_again[i], f32[i]);
  }
  // Batch-size invariance: per-item predictions equal the batched bits
  // (the relaxed kernel's per-element math never sees the batch shape).
  for (std::size_t i = 0; i < idxs.size(); ++i) {
    expect_bitwise(task.predict(idxs[i], gpu), f32[i]);
  }
}

// --- unit label: pinned to one thread. "SimdToggle" in a test name means
// the vectorized path against the scalar reference path. ---

TEST(PrecisionEquivalence, GbrF64InvariantUnderSimdToggleSerial) {
  const util::SerialSection serial;
  check_f64_matches_reference(RegressorKind::kGbr);
}

TEST(PrecisionEquivalence, MlpF64InvariantUnderSimdToggleSerial) {
  const util::SerialSection serial;
  check_f64_matches_reference(RegressorKind::kMlp);
}

TEST(PrecisionEquivalence, ConvMlpF64InvariantUnderSimdToggleSerial) {
  const util::SerialSection serial;
  check_f64_matches_reference(RegressorKind::kConvMlp);
}

TEST(PrecisionEquivalence, GbrF32ExactSerial) {
  const util::SerialSection serial;
  check_f32_equivalence(RegressorKind::kGbr);
}

TEST(PrecisionEquivalence, MlpF32WithinToleranceSerial) {
  const util::SerialSection serial;
  check_f32_equivalence(RegressorKind::kMlp);
}

TEST(PrecisionEquivalence, ConvMlpF32WithinToleranceSerial) {
  const util::SerialSection serial;
  check_f32_equivalence(RegressorKind::kConvMlp);
}

// --- parallel label: same contracts at the default thread count. The f32
// checks double as thread-count invariance gates: the serial suite above
// already pinned the exact bits each batch must reproduce. ---

TEST(ParallelPrecisionEquivalence, GbrF64InvariantUnderSimdToggle) {
  check_f64_matches_reference(RegressorKind::kGbr);
}

TEST(ParallelPrecisionEquivalence, MlpF64InvariantUnderSimdToggle) {
  check_f64_matches_reference(RegressorKind::kMlp);
}

TEST(ParallelPrecisionEquivalence, ConvMlpF64InvariantUnderSimdToggle) {
  check_f64_matches_reference(RegressorKind::kConvMlp);
}

TEST(ParallelPrecisionEquivalence, GbrF32Exact) {
  check_f32_equivalence(RegressorKind::kGbr);
}

TEST(ParallelPrecisionEquivalence, MlpF32WithinTolerance) {
  check_f32_equivalence(RegressorKind::kMlp);
}

TEST(ParallelPrecisionEquivalence, ConvMlpF32WithinTolerance) {
  check_f32_equivalence(RegressorKind::kConvMlp);
}

TEST(ParallelPrecisionEquivalence, F32ThreadCountInvariantVsSerial) {
  // Relaxed bits must not depend on the thread count: compare a serial f32
  // run against a default-threads f32 run, bitwise, for the NN kind that
  // actually exercises the relaxed kernels.
  const RegressionTask& task = fitted_task(RegressorKind::kMlp);
  const auto idxs = sample_idxs(task);
  const ml::PrecisionSection relaxed(ml::Precision::kRelaxed);
  const std::vector<double> parallel = task.predict_batch(idxs, 0);
  std::vector<double> serial;
  {
    const util::SerialSection section;
    serial = task.predict_batch(idxs, 0);
  }
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    expect_bitwise(parallel[i], serial[i]);
  }
}

// --- serve plumbing: ServeConfig::precision. ---

const StencilMart& precision_mart() {
  static const StencilMart mart = [] {
    MartConfig config;
    config.profile.dims = 2;
    config.profile.num_stencils = 6;
    config.profile.samples_per_oc = 2;
    config.profile.seed = 1717;
    config.regression.epochs = 3;
    config.regressor = RegressorKind::kMlp;  // NN: f32 actually differs
    config.tuning_samples = 4;
    StencilMart m(config);
    m.train();
    return m;
  }();
  return mart;
}

/// Minimal thread-safe sink for the serve checks.
class ReplyCollector {
 public:
  AdvisorServer::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lk(mu_);
      lines_.push_back(line);
    };
  }
  std::vector<std::string> sorted() {
    const std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::string> out = lines_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

std::vector<std::string> serve_f32_replies(int max_batch) {
  ServeConfig config;
  config.max_batch = max_batch;
  config.max_wait_us = 0;  // flush immediately: batch composition varies
  config.precision = "f32";
  AdvisorServer server(precision_mart(), config);
  ReplyCollector replies;
  const auto sink = replies.sink();
  const std::vector<std::string> requests = {
      "predict p1 shape=star dims=2 order=2 gpu=V100",
      "predict p2 shape=box dims=2 order=1 gpu=A100",
      "advise a1 shape=cross dims=2 order=2 gpu=P100",
      "predict p3 shape=star dims=2 order=1 gpu=2080Ti",
  };
  for (const auto& r : requests) server.submit(r, sink);
  server.drain();
  return replies.sorted();
}

TEST(PrecisionEquivalence, ServeF32RepliesInvariantAcrossBatchSizes) {
  const std::vector<std::string> one_by_one = serve_f32_replies(1);
  const std::vector<std::string> coalesced = serve_f32_replies(8);
  EXPECT_EQ(one_by_one, coalesced);
  ASSERT_EQ(one_by_one.size(), 4u);
  for (const std::string& reply : one_by_one) {
    EXPECT_EQ(reply.rfind("ok ", 0), 0u) << reply;
  }
}

TEST(PrecisionEquivalence, ServeF32MatchesInProcessRelaxedPrediction) {
  // The daemon's f32 replies are the same bits an in-process relaxed
  // predict produces: RAII overrides and config plumbing agree.
  ServeConfig config;
  config.precision = "f32";
  std::vector<std::string> via_server;
  {
    AdvisorServer server(precision_mart(), config);
    ReplyCollector replies;
    const auto sink = replies.sink();
    server.submit("predict q shape=star dims=2 order=2 gpu=V100", sink);
    server.drain();
    via_server = replies.sorted();
  }
  ASSERT_EQ(via_server.size(), 1u);

  const ml::PrecisionSection relaxed(ml::Precision::kRelaxed);
  const auto items = std::vector<AdviseBatchItem>{
      {stencil::make_star(2, 2), "V100", false}};
  const auto results = precision_mart().advise_batch(items);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  // The predict payload carries a bit-exact hexfloat of predicted_time_ms.
  char expected[64];
  std::snprintf(expected, sizeof(expected), "%a",
                results[0].advice.predicted_time_ms);
  EXPECT_NE(via_server[0].find(expected), std::string::npos)
      << "reply '" << via_server[0] << "' missing hexfloat " << expected;
}

TEST(PrecisionEquivalence, ServeConfigRejectsUnknownPrecision) {
  ServeConfig config;
  config.precision = "f16";
  EXPECT_THROW(AdvisorServer(precision_mart(), config), std::invalid_argument);
}

}  // namespace
}  // namespace smart::core
