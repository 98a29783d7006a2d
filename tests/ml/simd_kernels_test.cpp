// Vectorized inference kernel contracts (DESIGN.md §13):
//  - the fused bias+activation matmul is bit-identical to the unfused
//    matmul + bias loop + ReLU pass it replaces (strict precision);
//  - the relaxed ("f32") kernel is tolerance-equivalent to strict and its
//    per-element math is batch-size invariant (the property the serve
//    daemon's determinism contract relies on);
//  - the flattened lockstep GBDT walk is bit-identical to the per-row
//    pointer walk, NaN features included;
//  - the kernels reject aliased matrices, and Sequential::infer survives
//    shrinking/growing batch sizes (the serve admission batcher produces
//    arbitrary batch-size sequences).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/matrix.hpp"
#include "ml/models.hpp"
#include "ml/nn.hpp"
#include "ml/simd.hpp"
#include "ml/tree.hpp"
#include "util/rng.hpp"
#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"

namespace smart::ml {
namespace {

void expect_bitwise(float a, float b) {
  EXPECT_EQ(std::bit_cast<std::uint32_t>(a), std::bit_cast<std::uint32_t>(b));
}

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

/// Reference: the legacy unfused sequence the strict kernel must reproduce
/// bit-for-bit — matmul, then one bias add per element, then a ReLU pass.
Matrix unfused_reference(const Matrix& a, const Matrix& b, const Matrix& bias,
                         bool relu) {
  Matrix c;
  matmul_into(a, b, c);
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      float v = c.at(r, j) + bias.at(0, j);
      if (relu) v = v > 0.0f ? v : 0.0f;
      c.at(r, j) = v;
    }
  }
  return c;
}

// Shapes chosen to exercise the register-tile remainders (odd rows/cols),
// the vector-lane remainders of the relaxed kernel, and the parallel
// driver's worth_parallel threshold from both sides.
struct Shape {
  std::size_t rows, inner, cols;
};
const Shape kShapes[] = {{1, 1, 1},   {3, 7, 5},    {7, 13, 37},
                         {16, 24, 17}, {33, 47, 70}, {64, 128, 96}};

TEST(SimdKernels, FusedStrictMatchesUnfusedBitwise) {
  util::Rng rng(4242);
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.rows, s.inner, rng);
    const Matrix b = random_matrix(s.inner, s.cols, rng);
    const Matrix bias = random_matrix(1, s.cols, rng);
    for (const bool relu : {false, true}) {
      const Matrix ref = unfused_reference(a, b, bias, relu);
      Matrix c;
      matmul_bias_act_into(a, b, bias, relu, c);
      ASSERT_EQ(c.rows(), ref.rows());
      ASSERT_EQ(c.cols(), ref.cols());
      for (std::size_t r = 0; r < c.rows(); ++r) {
        for (std::size_t j = 0; j < c.cols(); ++j) {
          expect_bitwise(c.at(r, j), ref.at(r, j));
        }
      }
    }
  }
}

TEST(SimdKernels, FusedStrictMatchesUnfusedBitwiseSerial) {
  const util::SerialSection serial;
  util::Rng rng(777);
  const Matrix a = random_matrix(33, 47, rng);
  const Matrix b = random_matrix(47, 70, rng);
  const Matrix bias = random_matrix(1, 70, rng);
  const Matrix ref = unfused_reference(a, b, bias, true);
  Matrix c;
  matmul_bias_act_into(a, b, bias, true, c);
  for (std::size_t r = 0; r < c.rows(); ++r) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      expect_bitwise(c.at(r, j), ref.at(r, j));
    }
  }
}

TEST(SimdKernels, RelaxedMatchesStrictWithinTolerance) {
  util::Rng rng(99);
  for (const Shape& s : kShapes) {
    const Matrix a = random_matrix(s.rows, s.inner, rng);
    const Matrix b = random_matrix(s.inner, s.cols, rng);
    const Matrix bias = random_matrix(1, s.cols, rng);
    for (const bool relu : {false, true}) {
      const Matrix ref = unfused_reference(a, b, bias, relu);
      Matrix c;
      matmul_bias_act_relaxed_into(a, b, bias, relu, c);
      for (std::size_t r = 0; r < c.rows(); ++r) {
        for (std::size_t j = 0; j < c.cols(); ++j) {
          const double want = ref.at(r, j);
          const double got = c.at(r, j);
          // Reassociation/FMA error is a few ulps per accumulation chain;
          // 1e-4 relative (1e-5 absolute near zero) is orders of magnitude
          // above it and still catches any indexing bug outright.
          EXPECT_NEAR(got, want, 1e-5 + 1e-4 * std::fabs(want))
              << "rows=" << s.rows << " inner=" << s.inner
              << " cols=" << s.cols << " at (" << r << ", " << j << ")";
        }
      }
    }
  }
}

TEST(SimdKernels, RelaxedIsBatchSizeInvariant) {
  // The serve determinism contract in relaxed mode: a row's output depends
  // only on that row's values, never on which rows share the batch. Compute
  // 37 rows at once, then re-run the first 5 rows alone — bitwise equal.
  util::Rng rng(31);
  const Matrix a = random_matrix(37, 29, rng);
  const Matrix b = random_matrix(29, 43, rng);
  const Matrix bias = random_matrix(1, 43, rng);
  Matrix full;
  matmul_bias_act_relaxed_into(a, b, bias, true, full);

  Matrix head(5, a.cols());
  for (std::size_t r = 0; r < head.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) head.at(r, c) = a.at(r, c);
  }
  Matrix part;
  matmul_bias_act_relaxed_into(head, b, bias, true, part);
  for (std::size_t r = 0; r < part.rows(); ++r) {
    for (std::size_t j = 0; j < part.cols(); ++j) {
      expect_bitwise(part.at(r, j), full.at(r, j));
    }
  }
}

TEST(SimdKernels, RelaxedIsThreadCountInvariant) {
  // Same kernel serial vs parallel driver: bitwise equal (each row group's
  // math is independent of the grouping).
  util::Rng rng(53);
  const Matrix a = random_matrix(64, 48, rng);
  const Matrix b = random_matrix(48, 64, rng);
  const Matrix bias = random_matrix(1, 64, rng);
  Matrix parallel;
  matmul_bias_act_relaxed_into(a, b, bias, true, parallel);
  Matrix serial;
  {
    const util::SerialSection section;
    matmul_bias_act_relaxed_into(a, b, bias, true, serial);
  }
  for (std::size_t r = 0; r < parallel.rows(); ++r) {
    for (std::size_t j = 0; j < parallel.cols(); ++j) {
      expect_bitwise(serial.at(r, j), parallel.at(r, j));
    }
  }
}

TEST(SimdKernels, KernelsRejectAliasedMatrices) {
  util::Rng rng(7);
  Matrix a = random_matrix(8, 8, rng);
  const Matrix b = random_matrix(8, 8, rng);
  Matrix bias = random_matrix(1, 8, rng);
  EXPECT_THROW(matmul_into(a, b, a), std::invalid_argument);
  Matrix b_alias = b;
  EXPECT_THROW(matmul_into(a, b_alias, b_alias), std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_into(a, b, bias, true, a),
               std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_into(a, b, bias, true, bias),
               std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_relaxed_into(a, b, bias, true, a),
               std::invalid_argument);
  EXPECT_THROW(matmul_bias_act_relaxed_into(a, b, bias, true, bias),
               std::invalid_argument);
}

/// Regression guard for the serve memo path: Sequential::infer must give
/// each batch size the same bits no matter what batch sizes ran before it
/// (the ping-pong scratch buffers shrink and grow across calls).
void check_shrink_grow(Sequential& net, const Matrix& big, const Matrix& small) {
  const Matrix first_big = net.infer(big);
  const Matrix first_small = net.infer(small);
  const Matrix again_big = net.infer(big);    // grow after shrink
  ASSERT_EQ(again_big.rows(), first_big.rows());
  for (std::size_t r = 0; r < first_big.rows(); ++r) {
    for (std::size_t c = 0; c < first_big.cols(); ++c) {
      expect_bitwise(again_big.at(r, c), first_big.at(r, c));
    }
  }
  const Matrix again_small = net.infer(small);  // shrink after grow
  for (std::size_t r = 0; r < first_small.rows(); ++r) {
    for (std::size_t c = 0; c < first_small.cols(); ++c) {
      expect_bitwise(again_small.at(r, c), first_small.at(r, c));
    }
  }
  // A one-row batch exercises every remainder path; rows must match the
  // same row inside the big batch in strict mode and in relaxed mode (the
  // relaxed kernel's per-element math is batch-size invariant).
  Matrix one(1, big.cols());
  for (std::size_t c = 0; c < big.cols(); ++c) one.at(0, c) = big.at(0, c);
  const Matrix single = net.infer(one);
  for (std::size_t c = 0; c < single.cols(); ++c) {
    expect_bitwise(single.at(0, c), first_big.at(0, c));
  }
}

TEST(SimdKernels, SequentialInferShrinkGrowBatches) {
  util::Rng rng(2024);
  Sequential net = make_mlp(12, 2, 16, rng);
  net.set_training(false);
  const Matrix big = random_matrix(64, 12, rng);
  Matrix small(8, 12);
  for (std::size_t r = 0; r < small.rows(); ++r) {
    for (std::size_t c = 0; c < small.cols(); ++c) {
      small.at(r, c) = big.at(r, c);
    }
  }
  check_shrink_grow(net, big, small);
  const PrecisionSection relaxed(Precision::kRelaxed);
  check_shrink_grow(net, big, small);
}

TEST(SimdKernels, SequentialInferSimdToggleIsBitIdentical) {
  // The strict fusion peephole must not change a single output bit: the
  // vectorized infer() equals the scalar reference forward() pass.
  util::Rng rng(5150);
  Sequential net = make_mlp(10, 3, 24, rng);
  net.set_training(false);
  const Matrix x = random_matrix(50, 10, rng);
  const Matrix fused = net.infer(x);
  const Matrix unfused = net.forward(x);
  ASSERT_EQ(fused.rows(), unfused.rows());
  ASSERT_EQ(fused.cols(), unfused.cols());
  for (std::size_t r = 0; r < fused.rows(); ++r) {
    for (std::size_t c = 0; c < fused.cols(); ++c) {
      expect_bitwise(fused.at(r, c), unfused.at(r, c));
    }
  }
}

/// Small synthetic regression problem for the GBDT layout checks.
void make_regression_data(Matrix& x, std::vector<float>& y, std::size_t rows,
                          std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  x = Matrix(rows, dim);
  y.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    for (float& v : x.row(r)) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
      sum += v;
    }
    y[r] = static_cast<float>(sum + rng.uniform(-0.1, 0.1));
  }
}

TEST(FlatForest, LockstepMatchesPointerWalkBitwise) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 300, 9, 11);
  GbdtParams params;
  params.rounds = 20;
  GbdtRegressor reg(params);
  reg.fit(x, y);

  const std::vector<double> flat = reg.predict(x);
  ASSERT_EQ(flat.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    expect_bitwise(flat[r], reg.predict_row(x.row(r)));
  }
  // Relaxed precision must not change GBDT bits either (the flattened
  // layout changes memory layout, not math).
  const PrecisionSection relaxed(Precision::kRelaxed);
  const std::vector<double> flat_f32 = reg.predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    expect_bitwise(flat_f32[r], flat[r]);
  }
}

TEST(FlatForest, LockstepSurvivesSaveLoad) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 200, 6, 23);
  GbdtParams params;
  params.rounds = 10;
  GbdtRegressor reg(params);
  reg.fit(x, y);

  util::TokenWriter buf;
  reg.save(buf);
  util::TokenReader in(buf.str());
  const GbdtRegressor loaded = GbdtRegressor::load(in);
  const std::vector<double> a = reg.predict(x);
  const std::vector<double> b = loaded.predict(x);
  for (std::size_t r = 0; r < x.rows(); ++r) expect_bitwise(a[r], b[r]);
}

TEST(FlatForest, NanRoutesRightInBothLayouts) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 250, 7, 37);
  GbdtParams params;
  params.rounds = 15;
  GbdtRegressor reg(params);
  reg.fit(x, y);

  // Poison a mix of features: whole rows, single columns, alternating.
  Matrix poisoned = x;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t c = 0; c < poisoned.cols(); ++c) poisoned.at(0, c) = nan;
  for (std::size_t r = 0; r < poisoned.rows(); ++r) {
    if (r % 3 == 1) poisoned.at(r, r % poisoned.cols()) = nan;
  }

  const std::vector<double> flat = reg.predict(poisoned);
  for (std::size_t r = 0; r < poisoned.rows(); ++r) {
    // The flat walk and the per-row pointer walk both take the documented
    // right-child route on NaN, so the outputs agree bitwise and are finite
    // leaf sums, never NaN.
    expect_bitwise(flat[r], reg.predict_row(poisoned.row(r)));
    EXPECT_TRUE(std::isfinite(flat[r]));
  }
}

TEST(FlatForest, ClassifierLockstepMatchesPointerWalk) {
  Matrix x;
  std::vector<float> y;
  make_regression_data(x, y, 240, 8, 91);
  std::vector<int> labels(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    labels[r] = static_cast<int>(std::fabs(y[r])) % 3;
  }
  GbdtParams params;
  params.rounds = 8;
  GbdtClassifier clf(params);
  clf.fit(x, labels, 3);

  const std::vector<int> flat = clf.predict(x);
  ASSERT_EQ(flat.size(), x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_EQ(flat[r], clf.predict_row(x.row(r)));
  }
}

TEST(FlatForest, BuildRejectsNonPreorderLinks) {
  // A corrupt artifact with a back-linking child (in range, so it survives
  // RegressionTree::load's dangling-link check) would cycle the pointer
  // walk; FlatForest::build must reject it instead of trusting its depth.
  util::TokenReader corrupt(
      "tree 3 1 0\n"
      "0 0.5 0 2 0.0\n"   // root: left child links BACK to the root
      "-1 0.0 -1 -1 1.0\n"
      "-1 0.0 -1 -1 2.0\n");
  const RegressionTree tree = RegressionTree::load(corrupt);
  const std::vector<RegressionTree> trees{tree};
  FlatForest flat;
  EXPECT_THROW(flat.build(trees), std::runtime_error);
}

TEST(FeatureBinner, FitRejectsNan) {
  util::Rng rng(1);
  Matrix x(20, 4);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      x.at(r, c) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
  }
  x.at(7, 2) = std::numeric_limits<float>::quiet_NaN();
  FeatureBinner binner;
  EXPECT_THROW(binner.fit(x), std::invalid_argument);

  // The ensemble fit goes through the binner, so training data with NaN
  // fails loudly instead of learning from arbitrary routing.
  std::vector<float> y(x.rows(), 1.0f);
  GbdtRegressor reg;
  EXPECT_THROW(reg.fit(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace smart::ml
