// Process-wide inference precision for the vectorized kernels
// (DESIGN.md §13).
//
// Every inference hot path runs one kernel per precision: the fused
// Dense(+ReLU) matmul epilogue and the flattened lockstep GBDT walk. The
// precision knob picks between two output contracts:
//
//  - kStrict (default, "f64" on the CLI): the fused kernels perform the
//    exact floating-point operations, in the exact per-element order, of
//    the unfused reference sequence (matmul, bias add, ReLU pass) that the
//    tests keep as an oracle, so every output is bit-identical to it.
//  - kRelaxed ("f32"): the dense kernels may additionally reassociate float
//    accumulation and contract mul+add into FMA on ISAs that have it —
//    faster, but only tolerance-equivalent to strict. GBDT prediction is
//    exact in either mode (the flattened layout changes memory layout, not
//    math).
//
// The relaxed dense kernel is compiled for several x86 ISA levels and
// dispatched once at runtime (dispatch_isa()); on non-x86 or pre-AVX2
// hardware it falls back to the portable scalar-vector build, so a binary
// built on one machine runs (and stays deterministic per machine) anywhere.
//
// The precision reads its SMART_PRECISION default lazily on first use and
// can be overridden for a scope with PrecisionSection (mirroring
// util::SerialSection). The override is process-global, not thread-local,
// because the serve daemon evaluates batches on its own batcher thread; set
// it before spawning readers.
#pragma once

namespace smart::ml {

enum class Precision {
  kStrict,   // "f64": bit-identical to the historical scalar path
  kRelaxed,  // "f32": reassociated/FMA float accumulation, tolerance-gated
};

/// Current inference precision (SMART_PRECISION env: "f64" | "f32").
Precision inference_precision() noexcept;
void set_inference_precision(Precision p) noexcept;

/// Parses "f64"/"f32"; throws std::invalid_argument on anything else.
Precision precision_from_string(const char* name);

/// ISA level the relaxed dense kernel dispatched to on this machine
/// ("avx512f", "avx2+fma" or "scalar") — surfaced by benches and `serve
/// --timing` so recorded numbers name the kernel that produced them.
const char* dispatch_isa() noexcept;

/// RAII override of inference_precision() for a scope.
class PrecisionSection {
 public:
  explicit PrecisionSection(Precision p) noexcept
      : prev_(inference_precision()) {
    set_inference_precision(p);
  }
  ~PrecisionSection() { set_inference_precision(prev_); }
  PrecisionSection(const PrecisionSection&) = delete;
  PrecisionSection& operator=(const PrecisionSection&) = delete;

 private:
  Precision prev_;
};

}  // namespace smart::ml
