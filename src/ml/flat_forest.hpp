// Flattened GBDT inference layout (DESIGN.md §13): every tree of an
// ensemble re-packed into one contiguous structure-of-arrays node pool so
// batched prediction walks cold-cache-friendly int32/float arrays instead
// of pointer-chasing per-tree std::vector<Node> allocations, and evaluates
// kLockstep rows per tree in lockstep (independent traversal chains the CPU
// can overlap).
//
// Exactness: the lockstep walk performs the identical `value <= threshold`
// comparison against the identical thresholds as RegressionTree::
// predict_row, and returns the identical double leaf weight, so its results
// are bit-for-bit equal to the pointer walk — including the NaN contract
// (NaN fails `<=` and routes right). Leaves are made self-referential
// (left = right = self, threshold = +inf so finite and NaN values both
// stay put) which lets every lane run a fixed per-tree step count with no
// divergence bookkeeping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/tree.hpp"

namespace smart::ml {

class FlatForest {
 public:
  /// Rows evaluated per tree in lockstep (fits the index/feature working
  /// set in registers + L1 while staying a multiple of every vector width).
  static constexpr std::size_t kLockstep = 16;

  /// Rebuilds the flat pool from fitted trees (called after fit()/load()).
  /// Empty trees become a single zero-weight leaf so tree indices stay
  /// aligned with the ensemble. Per-tree step counts are recomputed from
  /// the node graph, never trusted from a serialized depth field.
  void build(std::span<const RegressionTree> trees);

  std::size_t num_trees() const noexcept { return root_.size(); }
  /// One past the largest split feature index (0 for leaf-only forests):
  /// the narrowest row leaf_weights() can read without going out of bounds.
  std::size_t feature_span() const noexcept { return feature_span_; }

  /// Writes tree `t`'s leaf weight for rows [begin, end) of x into
  /// out[0 .. end-begin). Bit-identical to predict_row on each row.
  void leaf_weights(std::size_t t, const Matrix& x, std::size_t begin,
                    std::size_t end, double* out) const;

 private:
  // One node pool across all trees; child indices are absolute.
  std::vector<std::int32_t> feature_;    // self-looped leaves store 0
  std::vector<float> threshold_;         // +inf at leaves
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<double> weight_;
  std::vector<std::int32_t> root_;       // per tree: pool index of the root
  std::vector<std::int32_t> steps_;      // per tree: computed max depth
  std::size_t feature_span_ = 0;
};

}  // namespace smart::ml
