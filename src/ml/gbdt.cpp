#include "ml/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/serialize_io.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::ml {

namespace {

std::vector<double> importance_from_trees(
    const std::vector<RegressionTree>& trees, std::size_t num_features) {
  std::vector<double> gains(num_features, 0.0);
  double total = 0.0;
  for (const RegressionTree& tree : trees) {
    for (const auto& [feature, gain] : tree.split_gains()) {
      if (feature >= 0 && static_cast<std::size_t>(feature) < num_features) {
        gains[static_cast<std::size_t>(feature)] += gain;
        total += gain;
      }
    }
  }
  if (total > 0.0) {
    for (double& g : gains) g /= total;
  }
  return gains;
}

/// Rows per block of the batched ensemble prediction: small enough that the
/// block's accumulators stay cache-resident while a tree streams over them,
/// large enough to amortize the per-tree loop overhead.
constexpr std::size_t kPredictBlock = 256;

void save_params(util::TokenWriter& out, const GbdtParams& p) {
  out << p.rounds << ' ';
  out.hex(p.learning_rate);
  out << ' ';
  out.hex(p.subsample);
  out << ' ' << p.seed << ' ' << p.tree.max_depth << ' '
      << p.tree.min_samples_leaf << ' ';
  out.hex(p.tree.lambda);
  out << ' ';
  out.hex(p.tree.min_gain);
  out << '\n';
}

GbdtParams load_params(util::TokenReader& in) {
  GbdtParams p;
  p.rounds = in.read_int("gbdt rounds");
  p.learning_rate = in.read_f64("gbdt learning_rate");
  p.subsample = in.read_f64("gbdt subsample");
  p.seed = in.read_u64("gbdt seed");
  p.tree.max_depth = in.read_int("gbdt max_depth");
  p.tree.min_samples_leaf = in.read_int("gbdt min_samples_leaf");
  p.tree.lambda = in.read_f64("gbdt lambda");
  p.tree.min_gain = in.read_f64("gbdt min_gain");
  return p;
}

std::vector<std::size_t> subsample_rows(std::size_t n, double fraction,
                                        util::Rng& rng) {
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::floor(fraction * static_cast<double>(n))));
  if (k >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  return rng.sample_without_replacement(n, k);
}

}  // namespace

void GbdtRegressor::fit(const Matrix& x, std::span<const float> y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GbdtRegressor::fit: bad shapes");
  }
  const util::PhaseTimer fit_timer(
      "ml.gbdt.fit", static_cast<std::uint64_t>(params_.rounds) * x.rows());
  trees_.clear();
  binner_.fit(x);
  const std::vector<std::uint8_t> binned = binner_.bin_matrix(x);
  util::Rng rng(params_.seed);

  base_ = 0.0;
  for (float v : y) base_ += v;
  base_ /= static_cast<double>(y.size());

  std::vector<double> pred(x.rows(), base_);
  std::vector<double> g(x.rows());
  const std::vector<double> h(x.rows(), 1.0);
  for (int round = 0; round < params_.rounds; ++round) {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      g[r] = pred[r] - static_cast<double>(y[r]);  // d/dp 0.5*(p-y)^2
    }
    const auto rows = subsample_rows(x.rows(), params_.subsample, rng);
    RegressionTree tree;
    tree.fit(x, binned, binner_, g, h, rows, params_.tree);
    util::parallel_for(x.rows(), [&](std::size_t r) {
      pred[r] += params_.learning_rate * tree.predict_row(x.row(r));
    });
    trees_.push_back(std::move(tree));
  }
  flat_.build(trees_);
}

double GbdtRegressor::predict_row(std::span<const float> features) const {
  double acc = base_;
  for (const RegressionTree& t : trees_) {
    acc += params_.learning_rate * t.predict_row(features);
  }
  return acc;
}

std::vector<double> GbdtRegressor::predict(const Matrix& x) const {
  std::vector<double> out(x.rows());
  const std::size_t blocks = (x.rows() + kPredictBlock - 1) / kPredictBlock;
  // Trees-outer/rows-inner per block over the flattened layout: each out[r]
  // adds the same leaf weights in ensemble order as predict_row(x.row(r)),
  // so the two are bit-identical; blocks write disjoint ranges, so the loop
  // is thread-count invariant.
  util::parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t begin = blk * kPredictBlock;
    const std::size_t end = std::min(x.rows(), begin + kPredictBlock);
    for (std::size_t r = begin; r < end; ++r) out[r] = base_;
    double leaves[kPredictBlock];
    for (std::size_t t = 0; t < flat_.num_trees(); ++t) {
      flat_.leaf_weights(t, x, begin, end, leaves);
      for (std::size_t r = begin; r < end; ++r) {
        out[r] += params_.learning_rate * leaves[r - begin];
      }
    }
  });
  return out;
}

void GbdtClassifier::fit(const Matrix& x, std::span<const int> labels,
                         int num_classes) {
  if (x.rows() != labels.size() || x.rows() == 0 || num_classes < 2) {
    throw std::invalid_argument("GbdtClassifier::fit: bad shapes");
  }
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      throw std::invalid_argument("GbdtClassifier::fit: label out of range");
    }
  }
  const util::PhaseTimer fit_timer(
      "ml.gbdt.fit", static_cast<std::uint64_t>(params_.rounds) * x.rows());
  num_classes_ = num_classes;
  trees_.clear();
  binner_.fit(x);
  const std::vector<std::uint8_t> binned = binner_.bin_matrix(x);
  util::Rng rng(params_.seed);

  // Start from log priors so rare classes are not drowned out early.
  std::vector<double> counts(static_cast<std::size_t>(num_classes), 1.0);
  for (int label : labels) ++counts[static_cast<std::size_t>(label)];
  base_scores_.resize(static_cast<std::size_t>(num_classes));
  for (int k = 0; k < num_classes; ++k) {
    base_scores_[static_cast<std::size_t>(k)] =
        std::log(counts[static_cast<std::size_t>(k)] /
                 static_cast<double>(labels.size() + num_classes));
  }

  const std::size_t n = x.rows();
  std::vector<double> scores(n * static_cast<std::size_t>(num_classes));
  for (std::size_t r = 0; r < n; ++r) {
    for (int k = 0; k < num_classes; ++k) {
      scores[r * static_cast<std::size_t>(num_classes) + static_cast<std::size_t>(k)] =
          base_scores_[static_cast<std::size_t>(k)];
    }
  }

  std::vector<double> g(n);
  std::vector<double> h(n);
  for (int round = 0; round < params_.rounds; ++round) {
    const auto rows = subsample_rows(n, params_.subsample, rng);
    for (int k = 0; k < num_classes; ++k) {
      for (std::size_t r = 0; r < n; ++r) {
        const double* srow = &scores[r * static_cast<std::size_t>(num_classes)];
        double max_score = srow[0];
        for (int j = 1; j < num_classes; ++j) max_score = std::max(max_score, srow[j]);
        double denom = 0.0;
        for (int j = 0; j < num_classes; ++j) {
          denom += std::exp(srow[j] - max_score);
        }
        const double pk = std::exp(srow[k] - max_score) / denom;
        g[r] = pk - (labels[r] == k ? 1.0 : 0.0);
        h[r] = std::max(1e-6, pk * (1.0 - pk));
      }
      RegressionTree tree;
      tree.fit(x, binned, binner_, g, h, rows, params_.tree);
      for (std::size_t r = 0; r < n; ++r) {
        scores[r * static_cast<std::size_t>(num_classes) + static_cast<std::size_t>(k)] +=
            params_.learning_rate * tree.predict_row(x.row(r));
      }
      trees_.push_back(std::move(tree));
    }
  }
  flat_.build(trees_);
}

void GbdtClassifier::predict_proba_into(std::span<const float> features,
                                        std::span<double> out) const {
  if (out.size() != base_scores_.size()) {
    throw std::invalid_argument("predict_proba_into: bad output size");
  }
  std::copy(base_scores_.begin(), base_scores_.end(), out.begin());
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    const std::size_t k = i % static_cast<std::size_t>(num_classes_);
    out[k] += params_.learning_rate * trees_[i].predict_row(features);
  }
  double max_score = out[0];
  for (double s : out) max_score = std::max(max_score, s);
  double denom = 0.0;
  for (double& s : out) {
    s = std::exp(s - max_score);
    denom += s;
  }
  for (double& s : out) s /= denom;
}

std::vector<double> GbdtClassifier::predict_proba_row(
    std::span<const float> features) const {
  std::vector<double> scores(base_scores_.size());
  predict_proba_into(features, scores);
  return scores;
}

int GbdtClassifier::predict_row(std::span<const float> features) const {
  // Small-class ensembles (merged OC groups, raw OCs) fit in a stack
  // buffer, so the per-row call performs no heap allocation.
  constexpr std::size_t kStackClasses = 32;
  double stack_buf[kStackClasses];
  std::vector<double> heap;
  std::span<double> scratch;
  const auto k = static_cast<std::size_t>(num_classes_);
  if (k <= kStackClasses) {
    scratch = {stack_buf, k};
  } else {
    heap.resize(k);
    scratch = heap;
  }
  predict_proba_into(features, scratch);
  return static_cast<int>(std::max_element(scratch.begin(), scratch.end()) -
                          scratch.begin());
}

std::vector<int> GbdtClassifier::predict(const Matrix& x) const {
  std::vector<int> out(x.rows());
  const auto num_k = static_cast<std::size_t>(num_classes_);
  const std::size_t blocks = (x.rows() + kPredictBlock - 1) / kPredictBlock;
  util::parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t begin = blk * kPredictBlock;
    const std::size_t end = std::min(x.rows(), begin + kPredictBlock);
    // One score buffer per block, reused across its rows.
    std::vector<double> scores((end - begin) * num_k);
    for (std::size_t r = begin; r < end; ++r) {
      std::copy(base_scores_.begin(), base_scores_.end(),
                scores.begin() + static_cast<std::ptrdiff_t>((r - begin) * num_k));
    }
    // Same ensemble order as predict_proba_into (tree i scores class
    // i % num_k), same leaf weights — bit-identical scores.
    double leaves[kPredictBlock];
    for (std::size_t i = 0; i < flat_.num_trees(); ++i) {
      const std::size_t k = i % num_k;
      flat_.leaf_weights(i, x, begin, end, leaves);
      for (std::size_t r = begin; r < end; ++r) {
        scores[(r - begin) * num_k + k] +=
            params_.learning_rate * leaves[r - begin];
      }
    }
    for (std::size_t r = begin; r < end; ++r) {
      // Softmax is strictly monotone, so the argmax of the raw scores
      // equals the argmax of predict_proba_row (first-max ties included).
      const double* srow = &scores[(r - begin) * num_k];
      out[r] = static_cast<int>(std::max_element(srow, srow + num_k) - srow);
    }
  });
  return out;
}

void GbdtRegressor::save(util::TokenWriter& out) const {
  out << "gbr ";
  save_params(out, params_);
  out.hex(base_);
  out << ' ' << trees_.size() << '\n';
  for (const RegressionTree& t : trees_) t.save(out);
}

GbdtRegressor GbdtRegressor::load(util::TokenReader& in) {
  in.expect_word("gbr", "GbdtRegressor::load");
  GbdtRegressor model(load_params(in));
  model.base_ = in.read_f64("gbr base score");
  const std::size_t num_trees = in.read_size("gbr tree count");
  model.trees_.reserve(std::min<std::size_t>(num_trees, 4096));  // untrusted
  for (std::size_t i = 0; i < num_trees; ++i) {
    model.trees_.push_back(RegressionTree::load(in));
  }
  model.flat_.build(model.trees_);
  return model;
}

void GbdtClassifier::save(util::TokenWriter& out) const {
  out << "gbc ";
  save_params(out, params_);
  out << num_classes_;
  for (double b : base_scores_) {
    out << ' ';
    out.hex(b);
  }
  out << '\n' << trees_.size() << '\n';
  for (const RegressionTree& t : trees_) t.save(out);
}

GbdtClassifier GbdtClassifier::load(util::TokenReader& in) {
  in.expect_word("gbc", "GbdtClassifier::load");
  GbdtClassifier model(load_params(in));
  model.num_classes_ = in.read_int("gbc num_classes");
  if (model.num_classes_ < 2) {
    throw std::runtime_error("GbdtClassifier::load: bad class count");
  }
  // Both counts are untrusted: grow per record (as RegressionTree::load
  // does), so a forged count fails at the first missing token instead of
  // allocating for it.
  for (int k = 0; k < model.num_classes_; ++k) {
    model.base_scores_.push_back(in.read_f64("gbc base score"));
  }
  const std::size_t num_trees = in.read_size("gbc tree count");
  if (num_trees % static_cast<std::size_t>(model.num_classes_) != 0) {
    throw std::runtime_error(
        "GbdtClassifier::load: tree count not a multiple of classes");
  }
  model.trees_.reserve(std::min<std::size_t>(num_trees, 4096));
  for (std::size_t i = 0; i < num_trees; ++i) {
    model.trees_.push_back(RegressionTree::load(in));
  }
  model.flat_.build(model.trees_);
  return model;
}

std::vector<double> GbdtRegressor::feature_importance(
    std::size_t num_features) const {
  return importance_from_trees(trees_, num_features);
}

std::vector<double> GbdtClassifier::feature_importance(
    std::size_t num_features) const {
  return importance_from_trees(trees_, num_features);
}

}  // namespace smart::ml

