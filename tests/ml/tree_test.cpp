#include "ml/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace smart::ml {
namespace {

Matrix step_features(std::size_t n, util::Rng& rng) {
  Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.at(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

// The split search RegressionTree used before its one-pass node histogram:
// one histogram pass over the node's rows per feature, features folded in
// order with a strict >, fresh left/right row vectors per node. It is the
// oracle the production builder must match bit for bit.
struct OracleTree {
  std::vector<RegressionTree::Node> nodes;
  std::vector<std::pair<int, double>> split_gains;
  int depth = 0;
};

struct OracleSplit {
  int feature = -1;
  int bin = -1;
  double gain = 0.0;
};

int oracle_build(const Matrix& x, std::span<const std::uint8_t> binned,
                 const FeatureBinner& binner, std::span<const double> g,
                 std::span<const double> h, const std::vector<std::size_t>& rows,
                 const TreeParams& params, int depth, OracleTree& out) {
  out.depth = std::max(out.depth, depth);
  double g_total = 0.0;
  double h_total = 0.0;
  for (std::size_t r : rows) {
    g_total += g[r];
    h_total += h[r];
  }
  const int node_index = static_cast<int>(out.nodes.size());
  out.nodes.emplace_back();
  out.nodes.back().weight = -g_total / (h_total + params.lambda);
  if (depth >= params.max_depth ||
      static_cast<int>(rows.size()) < 2 * params.min_samples_leaf) {
    return node_index;
  }

  const double parent_score = g_total * g_total / (h_total + params.lambda);
  const std::size_t width = x.cols();
  OracleSplit best;
  for (std::size_t f = 0; f < width; ++f) {
    OracleSplit choice;
    const int nbins = binner.bins(f);
    if (nbins < 2) continue;
    std::vector<double> gh(static_cast<std::size_t>(kMaxBins) * 2, 0.0);
    std::vector<int> counts(kMaxBins, 0);
    for (std::size_t r : rows) {
      const int b = binned[r * width + f];
      gh[static_cast<std::size_t>(b) * 2] += g[r];
      gh[static_cast<std::size_t>(b) * 2 + 1] += h[r];
      ++counts[b];
    }
    double gl = 0.0;
    double hl = 0.0;
    int left_count = 0;
    for (int b = 0; b + 1 < nbins; ++b) {
      gl += gh[static_cast<std::size_t>(b) * 2];
      hl += gh[static_cast<std::size_t>(b) * 2 + 1];
      left_count += counts[b];
      const int right_count = static_cast<int>(rows.size()) - left_count;
      if (left_count < params.min_samples_leaf ||
          right_count < params.min_samples_leaf) {
        continue;
      }
      const double gr = g_total - gl;
      const double hr = h_total - hl;
      const double gain = gl * gl / (hl + params.lambda) +
                          gr * gr / (hr + params.lambda) - parent_score;
      if (gain > choice.gain) choice = {static_cast<int>(f), b, gain};
    }
    if (choice.gain > best.gain) best = choice;
  }
  if (best.feature < 0 || best.gain < params.min_gain) return node_index;
  out.split_gains.emplace_back(best.feature, best.gain);

  const auto feature = static_cast<std::size_t>(best.feature);
  std::vector<std::size_t> left_rows;
  std::vector<std::size_t> right_rows;
  for (std::size_t r : rows) {
    (binned[r * width + feature] <= best.bin ? left_rows : right_rows)
        .push_back(r);
  }
  float threshold = -std::numeric_limits<float>::infinity();
  for (std::size_t r : left_rows) {
    threshold = std::max(threshold, x.at(r, feature));
  }
  const int left =
      oracle_build(x, binned, binner, g, h, left_rows, params, depth + 1, out);
  const int right =
      oracle_build(x, binned, binner, g, h, right_rows, params, depth + 1, out);
  RegressionTree::Node& node = out.nodes[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

/// Fits `x` with both builders and requires bit-identical trees. Returns
/// the fitted tree's internal node count so callers can check that their
/// case really splits.
std::size_t expect_matches_oracle(const Matrix& x, std::span<const double> g,
                                  std::span<const double> h,
                                  const std::vector<std::size_t>& rows,
                                  const TreeParams& params) {
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  RegressionTree tree;
  tree.fit(x, binned, binner, g, h, rows, params);
  OracleTree want;
  oracle_build(x, binned, binner, g, h, rows, params, 0, want);

  EXPECT_EQ(tree.depth(), want.depth);
  EXPECT_EQ(tree.nodes().size(), want.nodes.size());
  for (std::size_t i = 0; i < std::min(tree.nodes().size(), want.nodes.size());
       ++i) {
    const RegressionTree::Node& got = tree.nodes()[i];
    const RegressionTree::Node& exp = want.nodes[i];
    EXPECT_EQ(got.feature, exp.feature) << "node " << i;
    EXPECT_EQ(got.left, exp.left) << "node " << i;
    EXPECT_EQ(got.right, exp.right) << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.threshold),
              std::bit_cast<std::uint32_t>(exp.threshold))
        << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.weight),
              std::bit_cast<std::uint64_t>(exp.weight))
        << "node " << i;
  }
  EXPECT_EQ(tree.split_gains().size(), want.split_gains.size());
  for (std::size_t i = 0;
       i < std::min(tree.split_gains().size(), want.split_gains.size()); ++i) {
    EXPECT_EQ(tree.split_gains()[i].first, want.split_gains[i].first)
        << "split " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tree.split_gains()[i].second),
              std::bit_cast<std::uint64_t>(want.split_gains[i].second))
        << "split " << i;
  }
  return want.split_gains.size();
}

std::vector<std::size_t> all_rows(std::size_t n) {
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

/// Uniform gradients with the hessians the regressor (h = 1) or the
/// softmax classifier (h = p(1-p), floored at 1e-6) feeds in.
void random_gradients(std::size_t n, bool unit_hessian, util::Rng& rng,
                      std::vector<double>& g, std::vector<double>& h) {
  g.resize(n);
  h.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = rng.uniform(-1.0, 1.0);
    const double p = rng.uniform();
    h[i] = unit_hessian ? 1.0 : std::max(1e-6, p * (1.0 - p));
  }
}

TEST(FeatureBinner, BinsAreMonotone) {
  util::Rng rng(1);
  const Matrix x = step_features(200, rng);
  FeatureBinner binner;
  binner.fit(x);
  EXPECT_EQ(binner.num_features(), 2u);
  int prev = -1;
  for (float v = -1.0f; v <= 1.0f; v += 0.05f) {
    const int b = binner.bin_of(0, v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(FeatureBinner, SelectionEdgesBitIdenticalToFullSort) {
  // fit() selects quantile edges with successive nth_element instead of a
  // full sort; the edges must be bit-identical to the sort-based reference
  // for every max_bins, including columns with heavy ties and constants.
  util::Rng rng(7);
  for (const std::size_t rows : {3u, 17u, 200u, 1001u}) {
    Matrix x(rows, 4);
    for (std::size_t i = 0; i < rows; ++i) {
      x.at(i, 0) = static_cast<float>(rng.uniform(-5.0, 5.0));
      x.at(i, 1) = static_cast<float>(rng.uniform_int(0, 3));  // heavy ties
      x.at(i, 2) = 1.5f;                                       // constant
      x.at(i, 3) = static_cast<float>(i % 7) - 3.0f;
    }
    for (const int max_bins : {2, 5, 16, 32}) {
      FeatureBinner binner;
      binner.fit(x, max_bins);
      for (std::size_t f = 0; f < x.cols(); ++f) {
        std::vector<float> sorted(rows);
        for (std::size_t r = 0; r < rows; ++r) sorted[r] = x.at(r, f);
        std::sort(sorted.begin(), sorted.end());
        std::vector<float> want;
        for (int b = 1; b < max_bins; ++b) {
          const std::size_t idx = std::min(
              rows - 1, b * rows / static_cast<std::size_t>(max_bins));
          if (want.empty() || sorted[idx] > want.back()) {
            want.push_back(sorted[idx]);
          }
        }
        ASSERT_EQ(binner.bins(f), static_cast<int>(want.size()) + 1)
            << "rows=" << rows << " max_bins=" << max_bins << " f=" << f;
        for (std::size_t e = 0; e < want.size(); ++e) {
          // Pin edge e to the exact float the sort-based binner produces:
          // values <= edge fall in bin e, the next representable float
          // below must fall in bin e-1's side — together these force
          // bit-identical edges through upper_bound semantics.
          EXPECT_EQ(binner.bin_of(f, want[e]), static_cast<int>(e) + 1)
              << "rows=" << rows << " max_bins=" << max_bins << " f=" << f;
          const float below = std::nextafterf(
              want[e], -std::numeric_limits<float>::infinity());
          EXPECT_EQ(binner.bin_of(f, below), static_cast<int>(e))
              << "rows=" << rows << " max_bins=" << max_bins << " f=" << f;
        }
      }
    }
  }
}

TEST(FeatureBinner, RejectsBadBins) {
  FeatureBinner binner;
  EXPECT_THROW(binner.fit(Matrix(4, 1, 0.0f), 1), std::invalid_argument);
  EXPECT_THROW(binner.fit(Matrix(4, 1, 0.0f), 100), std::invalid_argument);
}

TEST(FeatureBinner, BinMatrixWidthMismatch) {
  FeatureBinner binner;
  binner.fit(Matrix(4, 2, 0.0f));
  EXPECT_THROW(binner.bin_matrix(Matrix(4, 3, 0.0f)), std::invalid_argument);
}

TEST(RegressionTree, LearnsStepFunction) {
  util::Rng rng(2);
  const std::size_t n = 400;
  const Matrix x = step_features(n, rng);
  // Residual-fitting setup: target = step(x0), initial prediction 0, so the
  // gradient is -target.
  std::vector<double> g(n);
  std::vector<double> h(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = -(x.at(i, 0) > 0.2f ? 5.0 : -5.0);
  }
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  RegressionTree tree;
  TreeParams params;
  params.max_depth = 3;
  tree.fit(x, binned, binner, g, h, rows, params);
  EXPECT_GT(tree.num_nodes(), 1u);
  int correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = tree.predict_row(x.row(i));
    const double want = x.at(i, 0) > 0.2f ? 5.0 : -5.0;
    if (std::abs(pred - want) < 1.0) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(0.95 * n));
}

TEST(RegressionTree, RespectsDepthLimit) {
  util::Rng rng(3);
  const std::size_t n = 300;
  const Matrix x = step_features(n, rng);
  std::vector<double> g(n);
  std::vector<double> h(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = rng.uniform(-1.0, 1.0);
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  std::vector<std::size_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  RegressionTree tree;
  TreeParams params;
  params.max_depth = 2;
  tree.fit(x, binned, binner, g, h, rows, params);
  EXPECT_LE(tree.depth(), 2);
}

TEST(RegressionTree, PureLeafWhenTooFewSamples) {
  util::Rng rng(4);
  const Matrix x = step_features(6, rng);
  std::vector<double> g{1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  std::vector<double> h(6, 1.0);
  FeatureBinner binner;
  binner.fit(x);
  const auto binned = binner.bin_matrix(x);
  std::vector<std::size_t> rows{0, 1, 2, 3, 4, 5};
  RegressionTree tree;
  TreeParams params;
  params.min_samples_leaf = 10;  // cannot split 6 rows
  tree.fit(x, binned, binner, g, h, rows, params);
  EXPECT_EQ(tree.num_nodes(), 1u);
}

TEST(RegressionTree, MatchesPerFeatureOracleOnLargeNodes) {
  // 3000 rows split first at x2 > 1, which leaves ~2500 rows on the left:
  // the root and its left child both hold 2048 rows or more.
  util::Rng rng(11);
  const std::size_t n = 3000;
  Matrix x(n, 7);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      x.at(i, f) = static_cast<float>(rng.normal());
    }
  }
  std::vector<double> g;
  std::vector<double> h;
  for (const bool unit_hessian : {true, false}) {
    random_gradients(n, unit_hessian, rng, g, h);
    for (std::size_t i = 0; i < n; ++i) {
      g[i] += (x.at(i, 2) > 1.0f ? 2.0 : -0.4) + 0.5 * x.at(i, 0);
    }
    TreeParams params;
    EXPECT_GT(expect_matches_oracle(x, g, h, all_rows(n), params), 4u);
  }
}

TEST(RegressionTree, MatchesOracleWhenGainsTie) {
  // Columns 1 and 3 copy column 0 and column 4 is its mirror image, so
  // every candidate split of column 0 ties with theirs; columns 2 and 5
  // have two and three distinct values. Ties must keep the lowest feature.
  util::Rng rng(12);
  const std::size_t n = 600;
  Matrix x(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<float>(rng.uniform_int(0, 3));
    x.at(i, 0) = v;
    x.at(i, 1) = v;
    x.at(i, 2) = static_cast<float>(rng.uniform_int(0, 1));
    x.at(i, 3) = v;
    x.at(i, 4) = -v;
    x.at(i, 5) = static_cast<float>(rng.uniform_int(-1, 1));
  }
  std::vector<double> g;
  std::vector<double> h;
  random_gradients(n, false, rng, g, h);
  for (std::size_t i = 0; i < n; ++i) g[i] += 0.5 * x.at(i, 0);
  TreeParams params;
  params.min_samples_leaf = 2;
  EXPECT_GT(expect_matches_oracle(x, g, h, all_rows(n), params), 2u);
}

TEST(RegressionTree, MatchesOracleWithSingleBinFeatures) {
  // Constant columns have one bin and can never split.
  util::Rng rng(13);
  const std::size_t n = 256;
  Matrix x(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    x.at(i, 0) = 3.0f;
    x.at(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
    x.at(i, 2) = -2.0f;
    x.at(i, 3) = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  std::vector<double> g;
  std::vector<double> h;
  random_gradients(n, true, rng, g, h);
  TreeParams params;
  params.max_depth = 6;
  EXPECT_GT(expect_matches_oracle(x, g, h, all_rows(n), params), 2u);

  const Matrix flat(n, 3, 1.0f);  // no feature has 2 bins: a single leaf
  EXPECT_EQ(expect_matches_oracle(flat, g, h, all_rows(n), params), 0u);
}

TEST(RegressionTree, MatchesOracleAtMinSamplesLeafBoundary) {
  util::Rng rng(14);
  for (const std::size_t n : {8u, 9u, 40u}) {
    const Matrix x = step_features(n, rng);
    std::vector<double> g;
    std::vector<double> h;
    random_gradients(n, false, rng, g, h);
    // n / 2 leaves only the middle splits of the root; n / 2 + 1 leaves
    // none.
    for (const int leaf : {1, 3, 4, static_cast<int>(n / 2),
                           static_cast<int>(n / 2) + 1}) {
      TreeParams params;
      params.min_samples_leaf = leaf;
      params.min_gain = 0.0;
      expect_matches_oracle(x, g, h, all_rows(n), params);
    }
  }
}

TEST(RegressionTree, MatchesOracleOnUnsortedSubsample) {
  // GBDT rounds fit on sample_without_replacement output, which is not
  // sorted; the builder must keep that row order in every node.
  util::Rng rng(15);
  const std::size_t n = 2600;
  Matrix x(n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      x.at(i, f) = static_cast<float>(rng.uniform_int(0, 40)) * 0.25f;
    }
  }
  std::vector<double> g;
  std::vector<double> h;
  random_gradients(n, false, rng, g, h);
  for (std::size_t i = 0; i < n; ++i) g[i] -= 0.1 * x.at(i, 1);
  const auto rows = rng.sample_without_replacement(n, 2100);
  ASSERT_FALSE(std::is_sorted(rows.begin(), rows.end()));
  TreeParams params;
  EXPECT_GT(expect_matches_oracle(x, g, h, rows, params), 8u);
}

TEST(RegressionTree, EmptyTreePredictsZero) {
  RegressionTree tree;
  const std::vector<float> features{1.0f};
  EXPECT_DOUBLE_EQ(tree.predict_row(features), 0.0);
}

}  // namespace
}  // namespace smart::ml
