#include "core/mart.hpp"

#include <string>

#include "gpusim/tuner.hpp"

#include <gtest/gtest.h>

namespace smart::core {
namespace {

MartConfig small_config() {
  MartConfig cfg;
  cfg.profile.dims = 2;
  cfg.profile.num_stencils = 24;
  cfg.profile.samples_per_oc = 3;
  cfg.profile.seed = 808;
  cfg.regression.instance_cap = 1500;
  cfg.tuning_samples = 8;
  return cfg;
}

const StencilMart& shared_mart() {
  static const StencilMart mart = [] {
    StencilMart m(small_config());
    m.train();
    return m;
  }();
  return mart;
}

/// One advise_batch item: the facade's only advice entry point.
AdviseBatchResult advise_one(const StencilMart& mart,
                             const stencil::StencilPattern& pattern,
                             const std::string& gpu) {
  const AdviseBatchItem item{pattern, gpu};
  return mart.advise_batch({&item, 1})[0];
}

OcAdvice advise_ok(const stencil::StencilPattern& pattern,
                   const std::string& gpu) {
  const AdviseBatchResult result = advise_one(shared_mart(), pattern, gpu);
  EXPECT_TRUE(result.ok()) << result.error;
  return result.advice;
}

TEST(StencilMart, RequiresTraining) {
  StencilMart untrained(small_config());
  EXPECT_FALSE(untrained.trained());
  EXPECT_THROW(advise_one(untrained, stencil::make_star(2, 1), "V100"),
               std::logic_error);
}

TEST(StencilMart, AdvisesUnseenStencil) {
  const auto advice = advise_ok(stencil::make_box(2, 2), "V100");
  EXPECT_GE(advice.group, 0);
  EXPECT_LT(advice.group, shared_mart().merger().num_groups());
  EXPECT_TRUE(advice.oc.is_valid());
  EXPECT_GT(advice.expected_time_ms, 0.0);
  EXPECT_GT(advice.predicted_time_ms, 0.0);
  // Prediction and simulated tuned time agree within a loose factor.
  const double ratio = advice.predicted_time_ms / advice.expected_time_ms;
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
}

TEST(StencilMart, AdviceIsDeterministic) {
  const auto a = advise_ok(stencil::make_star(2, 3), "P100");
  const auto b = advise_ok(stencil::make_star(2, 3), "P100");
  EXPECT_EQ(a.group, b.group);
  EXPECT_EQ(a.setting, b.setting);
  EXPECT_DOUBLE_EQ(a.expected_time_ms, b.expected_time_ms);
}

TEST(StencilMart, RejectsUnknownGpuAndWrongDims) {
  EXPECT_EQ(advise_one(shared_mart(), stencil::make_star(2, 1), "H100").error,
            "StencilMart: unknown GPU H100");
  EXPECT_EQ(advise_one(shared_mart(), stencil::make_star(3, 1), "V100").error,
            "StencilMart::advise: pattern dimensionality differs from the "
            "training corpus");
}

TEST(StencilMart, RecommendsRentableGpus) {
  const AdviseBatchResult result =
      advise_one(shared_mart(), stencil::make_cross(2, 2), "V100");
  ASSERT_TRUE(result.ok()) << result.error;
  const GpuRecommendation& rec = result.rec;
  EXPECT_FALSE(rec.fastest_gpu.empty());
  EXPECT_FALSE(rec.cheapest_gpu.empty());
  EXPECT_NE(rec.cheapest_gpu, "2080Ti");  // not rentable
  EXPECT_GT(rec.fastest_time_ms, 0.0);
  EXPECT_GT(rec.cheapest_cost_score, 0.0);
}

TEST(StencilMart, AdviceBeatsWorstCaseOnAverage) {
  // Over a handful of unseen stencils, the advised variant should land
  // well below the worst OC's tuned time (sanity of the whole pipeline).
  const gpusim::Simulator sim;
  const gpusim::RandomSearchTuner tuner(sim, 8);
  util::Rng rng(5);
  int wins = 0;
  int total = 0;
  for (int r = 1; r <= 4; ++r) {
    const auto pattern = stencil::make_star(2, r);
    const auto advice = advise_ok(pattern, "V100");
    const auto all = tuner.tune_all(
        pattern, gpusim::ProblemSize::paper_default(2),
        gpusim::gpu_by_name("V100"), rng);
    double worst = 0.0;
    for (const auto& res : all) {
      if (res.ok()) worst = std::max(worst, res.best_time_ms);
    }
    ++total;
    if (advice.expected_time_ms < 0.8 * worst) ++wins;
  }
  EXPECT_GE(wins, total - 1);
}

}  // namespace
}  // namespace smart::core
