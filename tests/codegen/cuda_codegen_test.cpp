#include "codegen/cuda_codegen.hpp"

#include <gtest/gtest.h>

#include "stencil/generator.hpp"

namespace smart::codegen {
namespace {

int count_occurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

bool braces_balanced(const std::string& src) {
  int depth = 0;
  for (char c : src) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (depth < 0) return false;
  }
  return depth == 0;
}

gpusim::ParamSetting setting_for(const gpusim::OptCombination& oc, int dims) {
  const gpusim::ParamSpace space(oc, dims);
  util::Rng rng(oc.bits() * 31 + dims);
  return space.random_setting(rng);
}

TEST(CudaCodegen, EveryValidOcGenerates) {
  const CudaKernelGenerator gen;
  for (int dims : {2, 3}) {
    const auto pattern = stencil::make_star(dims, 2);
    const auto problem = gpusim::ProblemSize::paper_default(dims);
    for (const auto& oc : gpusim::valid_combinations()) {
      const auto s = setting_for(oc, dims);
      const auto kernel = gen.generate(pattern, oc, s, problem);
      EXPECT_TRUE(braces_balanced(kernel.source)) << kernel.name;
      EXPECT_NE(kernel.source.find("__global__"), std::string::npos);
      EXPECT_NE(kernel.source.find(kernel.name), std::string::npos);
      EXPECT_NE(kernel.source.find("__constant__ double coef"),
                std::string::npos);
    }
  }
}

TEST(CudaCodegen, BarrierIffSharedMemoryOrTb) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_box(3, 1);
  const auto problem = gpusim::ProblemSize::paper_default(3);
  for (const auto& oc : gpusim::valid_combinations()) {
    const auto s = setting_for(oc, 3);
    const auto kernel = gen.generate(pattern, oc, s, problem);
    const bool has_sync =
        kernel.source.find("__syncthreads()") != std::string::npos;
    EXPECT_EQ(has_sync, kernel.has_barrier) << kernel.name;
    if (s.use_smem || (oc.tb && !oc.st)) {
      EXPECT_TRUE(has_sync) << kernel.name;
    }
  }
}

TEST(CudaCodegen, SmemDeclMatchesReportedFootprint) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(2, 3);
  const auto problem = gpusim::ProblemSize::paper_default(2);
  gpusim::OptCombination st;
  st.st = true;
  gpusim::ParamSetting s = setting_for(st, 2);
  s.use_smem = true;
  const auto kernel = gen.generate(pattern, st, s, problem);
  EXPECT_GT(kernel.smem_doubles, 0);
  EXPECT_NE(kernel.source.find("__shared__ double tile[" +
                               std::to_string(kernel.smem_doubles) + "]"),
            std::string::npos);
}

TEST(CudaCodegen, NoSmemMeansNoTileDecl) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(2, 1);
  const auto problem = gpusim::ProblemSize::paper_default(2);
  gpusim::ParamSetting s;
  s.use_smem = false;
  const auto kernel = gen.generate(pattern, gpusim::OptCombination{}, s, problem);
  EXPECT_EQ(kernel.smem_doubles, 0);
  EXPECT_EQ(kernel.source.find("__shared__"), std::string::npos);
}

TEST(CudaCodegen, OneTapPerOffsetInPlainKernels) {
  const CudaKernelGenerator gen;
  stencil::GeneratorConfig config;
  config.dims = 2;
  config.order = 3;
  const stencil::RandomStencilGenerator pattern_gen(config);
  util::Rng rng(44);
  for (int i = 0; i < 10; ++i) {
    const auto pattern = pattern_gen.generate(rng);
    gpusim::ParamSetting s;
    s.use_smem = false;
    const auto kernel = gen.generate(pattern, gpusim::OptCombination{}, s,
                                     gpusim::ProblemSize::paper_default(2));
    EXPECT_EQ(count_occurrences(kernel.source, "coef["), pattern.size() + 1)
        << "one tap per offset plus the __constant__ declaration";
  }
}

TEST(CudaCodegen, PeriodicUsesWrapDirichletUsesGuard) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(2, 1);
  gpusim::ParamSetting s;
  auto dirichlet = gpusim::ProblemSize::paper_default(2);
  auto periodic = dirichlet;
  periodic.boundary = stencil::Boundary::kPeriodic;
  const auto kd = gen.generate(pattern, {}, s, dirichlet);
  const auto kp = gen.generate(pattern, {}, s, periodic);
  EXPECT_NE(kd.source.find("load_or_zero"), std::string::npos);
  EXPECT_EQ(kd.source.find("wrap("), std::string::npos);
  EXPECT_NE(kp.source.find("wrap("), std::string::npos);
  EXPECT_EQ(kp.source.find("load_or_zero"), std::string::npos);
}

TEST(CudaCodegen, StreamingEmitsStreamLoopAndUnroll) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(3, 2);
  gpusim::OptCombination st;
  st.st = true;
  const auto s = setting_for(st, 3);
  const auto kernel =
      gen.generate(pattern, st, s, gpusim::ProblemSize::paper_default(3));
  EXPECT_NE(kernel.source.find("for (int sp = 0; sp < STREAM_TILE"),
            std::string::npos);
  EXPECT_NE(kernel.source.find("#pragma unroll UNROLL"), std::string::npos);
}

TEST(CudaCodegen, MergingEmitsMergeLoop) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(2, 1);
  gpusim::OptCombination bm;
  bm.bm = true;
  auto s = setting_for(bm, 2);
  const auto kernel =
      gen.generate(pattern, bm, s, gpusim::ProblemSize::paper_default(2));
  EXPECT_NE(kernel.source.find("for (int m = 0; m < MERGE"), std::string::npos);
  EXPECT_NE(kernel.source.find("block merging"), std::string::npos);

  gpusim::OptCombination cm;
  cm.cm = true;
  s = setting_for(cm, 2);
  const auto cyclic =
      gen.generate(pattern, cm, s, gpusim::ProblemSize::paper_default(2));
  EXPECT_NE(cyclic.source.find("cyclic merging"), std::string::npos);
}

TEST(CudaCodegen, RetimingAndPrefetchLeaveMarkers) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(3, 2);
  gpusim::OptCombination oc;
  oc.st = true;
  oc.rt = true;
  oc.pr = true;
  const auto s = setting_for(oc, 3);
  const auto kernel =
      gen.generate(pattern, oc, s, gpusim::ProblemSize::paper_default(3));
  EXPECT_NE(kernel.source.find("partial["), std::string::npos);
  EXPECT_NE(kernel.source.find("prefetch_buf"), std::string::npos);
}

TEST(CudaCodegen, RejectsInvalidInputs) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(2, 1);
  gpusim::ParamSetting bad;
  bad.block_x = 7;  // not a valid choice
  EXPECT_THROW(gen.generate(pattern, {}, bad,
                            gpusim::ProblemSize::paper_default(2)),
               std::invalid_argument);
  EXPECT_THROW(gen.generate(pattern, {}, gpusim::ParamSetting{},
                            gpusim::ProblemSize::paper_default(3)),
               std::invalid_argument);
}

TEST(CudaCodegen, HarnessMentionsLaunchAndVerification) {
  const CudaKernelGenerator gen;
  const auto pattern = stencil::make_star(2, 2);
  gpusim::ParamSetting s;
  const auto problem = gpusim::ProblemSize::paper_default(2);
  const auto kernel = gen.generate(pattern, {}, s, problem);
  const auto harness = gen.generate_harness(pattern, {}, s, kernel);
  EXPECT_TRUE(braces_balanced(harness));
  EXPECT_NE(harness.find("cudaMalloc"), std::string::npos);
  EXPECT_NE(harness.find(kernel.name + "<<<grid, block>>>"), std::string::npos);
  EXPECT_NE(harness.find("cudaEventElapsedTime"), std::string::npos);
}

TEST(CudaCodegen, VariantNamesAreUniquePerSetting) {
  const auto pattern = stencil::make_star(2, 2);
  gpusim::OptCombination st;
  st.st = true;
  const gpusim::ParamSpace space(st, 2);
  util::Rng rng(3);
  const auto a = space.random_setting(rng);
  auto b = a;
  b.block_x = a.block_x == 32 ? 64 : 32;
  EXPECT_NE(variant_name(pattern, st, a), variant_name(pattern, st, b));
}

}  // namespace
}  // namespace smart::codegen
