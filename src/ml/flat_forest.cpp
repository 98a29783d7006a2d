#include "ml/flat_forest.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace smart::ml {

void FlatForest::build(std::span<const RegressionTree> trees) {
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  weight_.clear();
  root_.clear();
  steps_.clear();
  feature_span_ = 0;

  std::size_t total = 0;
  for (const RegressionTree& tree : trees) {
    total += std::max<std::size_t>(1, tree.nodes().size());
  }
  feature_.reserve(total);
  threshold_.reserve(total);
  left_.reserve(total);
  right_.reserve(total);
  weight_.reserve(total);
  root_.reserve(trees.size());
  steps_.reserve(trees.size());

  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<std::int32_t> depth;  // scratch: per-node depth of one tree
  for (const RegressionTree& tree : trees) {
    const auto base = static_cast<std::int32_t>(feature_.size());
    root_.push_back(base);
    const auto& nodes = tree.nodes();
    if (nodes.empty()) {
      // predict_row returns 0.0 for an empty tree; a zero-weight leaf
      // reproduces that exactly.
      feature_.push_back(0);
      threshold_.push_back(kInf);
      left_.push_back(base);
      right_.push_back(base);
      weight_.push_back(0.0);
      steps_.push_back(0);
      continue;
    }
    for (const RegressionTree::Node& n : nodes) {
      const auto self = static_cast<std::int32_t>(feature_.size());
      if (n.feature < 0) {
        // Self-looping leaf: any value (NaN included, via `<= +inf` being
        // false) stays on this node for the remaining lockstep iterations.
        feature_.push_back(0);
        threshold_.push_back(kInf);
        left_.push_back(self);
        right_.push_back(self);
      } else {
        feature_span_ =
            std::max(feature_span_, static_cast<std::size_t>(n.feature) + 1);
        feature_.push_back(n.feature);
        threshold_.push_back(n.threshold);
        left_.push_back(base + n.left);
        right_.push_back(base + n.right);
      }
      weight_.push_back(n.weight);
    }
    // Step count = max root-to-node depth, recomputed from the links (a
    // serialized depth field is not trusted: too small would stop lanes on
    // internal nodes). Children always follow their parent in the builder's
    // preorder layout, so one forward pass suffices.
    depth.assign(nodes.size(), 0);
    std::int32_t max_depth = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const RegressionTree::Node& n = nodes[i];
      if (n.feature < 0) continue;
      if (n.left <= static_cast<int>(i) || n.right <= static_cast<int>(i)) {
        // Fitted trees are preorder by construction; a back-link can only
        // come from a corrupt artifact (and would cycle the pointer walk).
        throw std::runtime_error("FlatForest::build: non-preorder child link");
      }
      const std::int32_t d = depth[i] + 1;
      depth[static_cast<std::size_t>(n.left)] = d;
      depth[static_cast<std::size_t>(n.right)] = d;
      max_depth = std::max(max_depth, d);
    }
    steps_.push_back(max_depth);
  }
}

void FlatForest::leaf_weights(std::size_t t, const Matrix& x,
                              std::size_t begin, std::size_t end,
                              double* out) const {
  const std::int32_t root = root_[t];
  const std::int32_t steps = steps_[t];
  const std::int32_t* feature = feature_.data();
  const float* threshold = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  const std::size_t cols = x.cols();
  const float* data = x.data();

  const std::size_t n = end - begin;
  for (std::size_t r0 = 0; r0 < n; r0 += kLockstep) {
    const std::size_t ln = std::min(kLockstep, n - r0);
    std::int32_t idx[kLockstep];
    for (std::size_t l = 0; l < ln; ++l) idx[l] = root;
    for (std::int32_t d = 0; d < steps; ++d) {
      for (std::size_t l = 0; l < ln; ++l) {
        const std::int32_t i = idx[l];
        const float v =
            data[(begin + r0 + l) * cols + static_cast<std::size_t>(feature[i])];
        // Same comparison as the pointer walk: NaN fails `<=`, goes right.
        idx[l] = v <= threshold[i] ? left[i] : right[i];
      }
    }
    for (std::size_t l = 0; l < ln; ++l) {
      out[r0 + l] = weight_[static_cast<std::size_t>(idx[l])];
    }
  }
}

}  // namespace smart::ml
