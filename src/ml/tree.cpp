#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/serialize_io.hpp"

namespace smart::ml {

void FeatureBinner::fit(const Matrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > kMaxBins) {
    throw std::invalid_argument("FeatureBinner: max_bins out of range");
  }
  edges_.assign(x.cols(), {});
  std::vector<float> column(x.rows());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      column[r] = x.at(r, f);
      // Reject NaN at training time: it breaks nth_element's ordering
      // below, and quarantined rows (the NaN-times convention) must never
      // reach a fit. Prediction-time NaN is defined instead: it routes
      // right at every split (see RegressionTree::predict_row).
      if (std::isnan(column[r])) {
        throw std::invalid_argument(
            "FeatureBinner::fit: NaN feature value (train on finite rows)");
      }
    }
    // Only max_bins-1 quantile ranks are needed, not a total order: select
    // each rank with nth_element over the remaining suffix (the ranks are
    // ascending, so after partitioning at `done` every later rank lives in
    // (done, end)). Yields the same edge values as a full sort at O(n)
    // per column instead of O(n log n).
    auto& edges = edges_[f];
    std::size_t done = column.size();  // sentinel: nothing partitioned yet
    for (int b = 1; b < max_bins; ++b) {
      const std::size_t idx =
          std::min(x.rows() - 1, b * x.rows() / static_cast<std::size_t>(max_bins));
      if (done == column.size()) {
        std::nth_element(column.begin(),
                         column.begin() + static_cast<std::ptrdiff_t>(idx),
                         column.end());
        done = idx;
      } else if (idx > done) {
        std::nth_element(column.begin() + static_cast<std::ptrdiff_t>(done) + 1,
                         column.begin() + static_cast<std::ptrdiff_t>(idx),
                         column.end());
        done = idx;
      }
      const float edge = column[idx];
      if (edges.empty() || edge > edges.back()) edges.push_back(edge);
    }
  }
}

int FeatureBinner::bin_of(std::size_t f, float v) const {
  const auto& edges = edges_[f];
  return static_cast<int>(
      std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
}

std::vector<std::uint8_t> FeatureBinner::bin_matrix(const Matrix& x) const {
  if (x.cols() != edges_.size()) {
    throw std::invalid_argument("FeatureBinner::bin_matrix: width mismatch");
  }
  std::vector<std::uint8_t> out(x.rows() * x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t f = 0; f < x.cols(); ++f) {
      out[r * x.cols() + f] = static_cast<std::uint8_t>(bin_of(f, x.at(r, f)));
    }
  }
  return out;
}

namespace {

/// One (feature, bin) cell of a node histogram.
struct HistBin {
  double g = 0.0;
  double h = 0.0;
  int count = 0;
};

}  // namespace

/// Buffers one fit reuses at every node: the width x kMaxBins histogram and
/// the right-hand rows of the partition.
struct RegressionTree::BuildScratch {
  std::vector<HistBin> hist;
  std::vector<std::size_t> right;
};

void RegressionTree::fit(const Matrix& x, std::span<const std::uint8_t> binned,
                         const FeatureBinner& binner,
                         std::span<const double> gradients,
                         std::span<const double> hessians,
                         std::span<const std::size_t> rows,
                         const TreeParams& params) {
  nodes_.clear();
  split_gains_.clear();
  depth_ = 0;
  std::vector<std::size_t> index(rows.begin(), rows.end());
  BuildScratch scratch{
      std::vector<HistBin>(x.cols() * static_cast<std::size_t>(kMaxBins)),
      std::vector<std::size_t>(index.size())};
  build(x, binned, binner, gradients, hessians, index, scratch, params, 0);
}

int RegressionTree::build(const Matrix& x, std::span<const std::uint8_t> binned,
                          const FeatureBinner& binner,
                          std::span<const double> g, std::span<const double> h,
                          std::span<std::size_t> rows, BuildScratch& scratch,
                          const TreeParams& params, int depth) {
  depth_ = std::max(depth_, depth);
  double g_total = 0.0;
  double h_total = 0.0;
  for (std::size_t r : rows) {
    g_total += g[r];
    h_total += h[r];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<std::size_t>(node_index)].weight =
      -g_total / (h_total + params.lambda);

  if (depth >= params.max_depth ||
      static_cast<int>(rows.size()) < 2 * params.min_samples_leaf) {
    return node_index;
  }

  // One pass over the node's rows fills every feature's histogram; each
  // (feature, bin) cell still adds its rows in row order. Interleaving the
  // features breaks the add chain that consecutive same-bin rows form.
  const std::size_t width = x.cols();
  std::vector<HistBin>& hist = scratch.hist;
  std::fill(hist.begin(), hist.end(), HistBin{});
  for (std::size_t r : rows) {
    const std::uint8_t* row_bins = &binned[r * width];
    for (std::size_t f = 0; f < width; ++f) {
      HistBin& cell = hist[f * static_cast<std::size_t>(kMaxBins) + row_bins[f]];
      cell.g += g[r];
      cell.h += h[r];
      ++cell.count;
    }
  }

  // Features in order, bins in order, strict >: ties keep the lowest
  // (feature, bin).
  const double parent_score = g_total * g_total / (h_total + params.lambda);
  int best_feature = -1;
  int best_bin = -1;  // go left if bin(value) <= best_bin
  double best_gain = 0.0;
  for (std::size_t f = 0; f < width; ++f) {
    const int nbins = binner.bins(f);
    const HistBin* cells = &hist[f * static_cast<std::size_t>(kMaxBins)];
    double gl = 0.0;
    double hl = 0.0;
    int left_count = 0;
    for (int b = 0; b + 1 < nbins; ++b) {
      gl += cells[b].g;
      hl += cells[b].h;
      left_count += cells[b].count;
      const int right_count = static_cast<int>(rows.size()) - left_count;
      if (left_count < params.min_samples_leaf ||
          right_count < params.min_samples_leaf) {
        continue;
      }
      const double gr = g_total - gl;
      const double hr = h_total - hl;
      const double gain = gl * gl / (hl + params.lambda) +
                          gr * gr / (hr + params.lambda) - parent_score;
      if (gain > best_gain) {
        best_feature = static_cast<int>(f);
        best_bin = b;
        best_gain = gain;
      }
    }
  }
  if (best_feature < 0 || best_gain < params.min_gain) return node_index;
  split_gains_.emplace_back(best_feature, best_gain);

  // Order-preserving partition in place: left rows compact to the front,
  // right rows park in scratch and are copied back behind them. The
  // threshold is the largest left-side value, so prediction needs no binner
  // (bin b spans (edge[b-1], edge[b]]).
  const auto feature = static_cast<std::size_t>(best_feature);
  float threshold = -std::numeric_limits<float>::infinity();
  std::size_t num_left = 0;
  std::size_t num_right = 0;
  for (std::size_t r : rows) {
    if (binned[r * width + feature] <= best_bin) {
      rows[num_left++] = r;
      threshold = std::max(threshold, x.at(r, feature));
    } else {
      scratch.right[num_right++] = r;
    }
  }
  std::copy_n(scratch.right.begin(), num_right, rows.begin() + num_left);

  const int left = build(x, binned, binner, g, h, rows.first(num_left),
                         scratch, params, depth + 1);
  const int right = build(x, binned, binner, g, h, rows.subspan(num_left),
                          scratch, params, depth + 1);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

void RegressionTree::save(util::TokenWriter& out) const {
  out << "tree " << nodes_.size() << ' ' << depth_ << ' '
      << split_gains_.size() << '\n';
  for (const Node& n : nodes_) {
    out << n.feature << ' ';
    out.hex(static_cast<double>(n.threshold));
    out << ' ' << n.left << ' ' << n.right << ' ';
    out.hex(n.weight);
    out << '\n';
  }
  for (const auto& [feature, gain] : split_gains_) {
    out << feature << ' ';
    out.hex(gain);
    out << '\n';
  }
}

RegressionTree RegressionTree::load(util::TokenReader& in) {
  in.expect_word("tree", "RegressionTree::load");
  const std::size_t num_nodes = in.read_size("tree node count");
  const int depth = in.read_int("tree depth");
  const std::size_t num_gains = in.read_size("tree gain count");
  RegressionTree tree;
  tree.depth_ = depth;
  // The counts are untrusted: reserve at most kMaxReserve records and grow
  // record by record past that, so a forged count fails at the first
  // missing token instead of allocating up front, while fitted trees still
  // load into exactly-sized vectors.
  constexpr std::size_t kMaxReserve = 4096;
  tree.nodes_.reserve(std::min(num_nodes, kMaxReserve));
  tree.split_gains_.reserve(std::min(num_gains, kMaxReserve));
  const long long n = static_cast<long long>(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    Node& node = tree.nodes_.emplace_back();
    node.feature = in.read_int("tree node feature");
    node.threshold =
        static_cast<float>(in.read_f64("tree node threshold", false));
    node.left = in.read_int("tree node left");
    node.right = in.read_int("tree node right");
    node.weight = in.read_f64("tree node weight");
    if (node.feature >= 0 &&
        (node.left < 0 || node.left >= n || node.right < 0 || node.right >= n)) {
      throw std::runtime_error("RegressionTree::load: dangling child link");
    }
  }
  for (std::size_t i = 0; i < num_gains; ++i) {
    const int feature = in.read_int("tree gain feature");
    tree.split_gains_.emplace_back(feature, in.read_f64("tree gain value"));
  }
  return tree;
}

double RegressionTree::predict_row(std::span<const float> features) const {
  if (nodes_.empty()) return 0.0;
  int idx = 0;
  while (nodes_[static_cast<std::size_t>(idx)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    // `<=` is false for NaN, so a NaN feature routes right at every split
    // (the explicit contract shared with FlatForest's lockstep walk).
    idx = features[static_cast<std::size_t>(n.feature)] <= n.threshold
              ? n.left
              : n.right;
  }
  return nodes_[static_cast<std::size_t>(idx)].weight;
}

}  // namespace smart::ml
