// StencilMart: the end-user facade of the framework (paper Fig. 5, used the
// way the paper's scenarios describe).
//
//   smart::core::StencilMart mart(config);
//   mart.train();                               // profile + fit all models
//   const smart::core::AdviseBatchItem item{my_pattern, "V100"};
//   const auto result = mart.advise_batch({&item, 1})[0];
//   // result.advice -> which merged OC group to tune, its representative
//   //    OC, a concrete parameter setting, and the predicted execution time
//   // result.rec    -> best-performance GPU and most cost-efficient rental
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/classification.hpp"
#include "core/oc_merger.hpp"
#include "core/profile_dataset.hpp"
#include "core/regression.hpp"
#include "ml/gbdt.hpp"

namespace smart::core {

struct ModelCodec;

struct MartConfig {
  ProfileConfig profile{};
  RegressionConfig regression{};
  RegressorKind regressor = RegressorKind::kGbr;  // fastest to train
  int tuning_samples = 24;  // random-search budget of the advised OC
};

struct OcAdvice {
  int group = -1;
  std::string group_name;
  gpusim::OptCombination oc;             // the group's representative
  gpusim::ParamSetting setting;          // tuned under the simulator
  double expected_time_ms = 0.0;         // simulated time of that setting
  double predicted_time_ms = 0.0;        // the regression model's estimate
};

struct GpuRecommendation {
  std::string fastest_gpu;
  double fastest_time_ms = 0.0;
  std::string cheapest_gpu;              // time x rental $/hr minimizer
  double cheapest_cost_score = 0.0;
};

/// One query of an advise_batch() call: a stencil on a named GPU, with or
/// without the cross-GPU rental recommendation.
struct AdviseBatchItem {
  stencil::StencilPattern pattern{2, {}};
  std::string gpu = "V100";
  bool recommend = true;
};

/// Per-item outcome of advise_batch(). An invalid item (unknown GPU, wrong
/// dimensionality, no runnable variant) carries the diagnostic in `error`
/// instead of failing the whole batch.
struct AdviseBatchResult {
  OcAdvice advice{};
  GpuRecommendation rec{};  // filled only when the item asked for it
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};

class StencilMart {
 public:
  explicit StencilMart(MartConfig config);

  /// Profiles the training corpus and fits the OC merger, one per-GPU
  /// GBDT classifier, and the cross-architecture regressor.
  void train();
  /// Trains from an already-profiled corpus (e.g. load_dataset output):
  /// skips profiling entirely and fits all models on the corpus's measured
  /// times. The corpus's ProfileConfig replaces config.profile so advice
  /// uses the geometry and simulator settings the corpus was built with.
  void train(const ProfileDataset& dataset);
  bool trained() const noexcept { return trained_; }

  /// Best-OC advice for (possibly unseen) stencils on named GPUs, plus the
  /// cross-architecture rental recommendation for items that ask for it:
  /// per GPU, the model predicts the time of the advised variant; cost
  /// efficiency weighs it by rental price (GPUs without a price are skipped
  /// there). Classification and tuning run once per distinct (stencil, GPU)
  /// variant across the whole batch (parallel on the task pool), and every
  /// regression estimate of the batch is funnelled through ONE
  /// predict_variants call. Each result is bit-identical to a one-item call
  /// for that item — batching and within-batch deduplication change cost,
  /// never values — which is the determinism contract the serve daemon's
  /// admission batcher is built on. Item patterns must stay alive for the
  /// duration of the call.
  std::vector<AdviseBatchResult> advise_batch(
      std::span<const AdviseBatchItem> items) const;

  const ProfileDataset& dataset() const { return *dataset_; }
  const OcMerger& merger() const { return merger_; }
  const MartConfig& config() const noexcept { return config_; }

 private:
  /// Fits merger, per-GPU classifiers and the regressor on *dataset_.
  void fit_models();

  // Model artifact (de)serialization (core/serialize) assembles/injects the
  // trained state directly.
  friend struct ModelCodec;

  /// Classification + tuning for one GPU, without the regression estimate
  /// (predicted_time_ms stays 0; advise_batch adds it). The pattern's
  /// dimensionality must match the corpus (advise_batch checks it).
  OcAdvice advise_variant(const stencil::StencilPattern& pattern,
                          std::size_t g) const;

  MartConfig config_;
  bool trained_ = false;
  std::unique_ptr<ProfileDataset> dataset_;
  OcMerger merger_;
  std::vector<ml::GbdtClassifier> classifiers_;  // one per GPU
  std::unique_ptr<RegressionTask> regression_;
};

}  // namespace smart::core
