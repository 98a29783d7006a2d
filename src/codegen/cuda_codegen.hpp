// CUDA kernel generator for stencil variants.
//
// The paper's toolchain materializes every (stencil, OC, parameter setting)
// as a CUDA kernel before measuring it; this module reproduces that
// code-generation step. The emitted source is structurally faithful:
//  * one thread block covers a (block_x x block_y) tile, coarsened by the
//    merging factor along the merge axis (BM contiguous / CM strided),
//  * ST variants stream 2-D planes along the stream axis, staging tiles in
//    shared memory (when use_smem) with a barrier + shift per plane,
//  * PR variants double-buffer the next plane's loads into registers,
//  * RT variants split the accumulation into per-plane partial sums that
//    are retired as the stream advances (the retiming reorder),
//  * TB variants fuse tb_depth time steps with an extended halo,
//  * coefficients live in __constant__ memory; boundary handling is either
//    a guard returning 0 (Dirichlet) or wrap-around (periodic).
//
// There is no CUDA toolchain in this environment, so the generated code is
// validated structurally (see tests/codegen/): balanced braces, the right
// barriers, the right shared-memory footprint, one tap per stencil offset.
#pragma once

#include <string>

#include "gpusim/opt.hpp"
#include "gpusim/params.hpp"
#include "gpusim/problem.hpp"
#include "stencil/pattern.hpp"

namespace smart::codegen {

struct GeneratedKernel {
  std::string name;       // C identifier of the __global__ function
  std::string source;     // self-contained .cu translation unit (kernel only)
  int smem_doubles = 0;   // statically declared shared-memory doubles
  bool has_barrier = false;
};

class CudaKernelGenerator {
 public:
  /// Generates the kernel for one variant. Throws std::invalid_argument on
  /// OC/setting/pattern mismatches (the same validity rules as ParamSpace).
  GeneratedKernel generate(const stencil::StencilPattern& pattern,
                           const gpusim::OptCombination& oc,
                           const gpusim::ParamSetting& setting,
                           const gpusim::ProblemSize& problem) const;

  /// A host-side harness around `kernel`: allocation, launch configuration
  /// mirroring the cost model's block decomposition, a golden CPU check.
  /// The problem extents come from the kernel's NX/NY/NZ defines.
  std::string generate_harness(const stencil::StencilPattern& pattern,
                               const gpusim::OptCombination& oc,
                               const gpusim::ParamSetting& setting,
                               const GeneratedKernel& kernel) const;
};

/// Stable identifier for a variant, e.g. "star2d2r_st_rt_b32x8_u2".
std::string variant_name(const stencil::StencilPattern& pattern,
                         const gpusim::OptCombination& oc,
                         const gpusim::ParamSetting& setting);

}  // namespace smart::codegen
