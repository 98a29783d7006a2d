#include "core/mart.hpp"

#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "gpusim/tuner.hpp"
#include "stencil/features.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"

namespace smart::core {

StencilMart::StencilMart(MartConfig config) : config_(std::move(config)) {}

void StencilMart::train() {
  dataset_ = std::make_unique<ProfileDataset>(
      build_profile_dataset(config_.profile));
  fit_models();
}

void StencilMart::train(const ProfileDataset& dataset) {
  if (dataset.stencils.empty()) {
    throw std::invalid_argument("StencilMart::train: empty corpus");
  }
  dataset_ = std::make_unique<ProfileDataset>(dataset);
  config_.profile = dataset_->config;
  fit_models();
}

void StencilMart::fit_models() {
  merger_.fit(*dataset_);

  // One classifier per GPU (the paper trains per target architecture).
  // Every GPU's labels are checked before any fit starts, so a corpus that
  // cannot train fails with the same message at any thread count.
  const ml::Matrix features = stencil_feature_matrix(*dataset_);
  std::vector<ml::Matrix> gpu_x;
  std::vector<std::vector<int>> gpu_y(dataset_->num_gpus());
  for (std::size_t g = 0; g < dataset_->num_gpus(); ++g) {
    const auto labels = true_groups(*dataset_, merger_, g);
    std::vector<std::size_t> rows;
    for (std::size_t s = 0; s < labels.size(); ++s) {
      if (labels[s] >= 0) {
        rows.push_back(s);
        gpu_y[g].push_back(labels[s]);
      }
    }
    if (rows.empty()) {
      // Every stencil quarantined/crashed on this GPU: nothing to learn
      // from, and GbdtClassifier::fit on a 0-row matrix would fail deep in
      // the tree builder with an unhelpful message.
      throw std::runtime_error(
          "StencilMart::train: no labelled stencils for GPU '" +
          dataset_->gpus[g].name +
          "' (every work unit crashed or was quarantined)");
    }
    gpu_x.push_back(features.gather_rows(rows));
  }

  // The five ensembles are independent and each owns a fixed seed, so they
  // fit as concurrent pool tasks, each into its own slot; task 0, the
  // regressor, is the longest and is claimed first.
  classifiers_.assign(dataset_->num_gpus(), ml::GbdtClassifier{});
  std::unique_ptr<RegressionTask> regression;
  {
    const util::PhaseTimer timer("core.mart.fit_models",
                                 classifiers_.size() + 1);
    util::parallel_for(classifiers_.size() + 1, [&](std::size_t i) {
      if (i == 0) {
        regression =
            std::make_unique<RegressionTask>(*dataset_, config_.regression);
        regression->fit_full(config_.regressor);
      } else {
        classifiers_[i - 1].fit(gpu_x[i - 1], gpu_y[i - 1],
                                merger_.num_groups());
      }
    });
  }
  regression_ = std::move(regression);
  trained_ = true;
}

OcAdvice StencilMart::advise_variant(const stencil::StencilPattern& pattern,
                                     std::size_t g) const {
  const auto fv = stencil::extract_features(pattern, config_.profile.max_order)
                      .to_vector();
  const std::vector<float> row(fv.begin(), fv.end());
  OcAdvice advice;
  advice.group = classifiers_[g].predict_row(row);
  advice.group_name = merger_.group_name(advice.group);
  const int rep = merger_.representative(advice.group);
  advice.oc = gpusim::valid_combinations()[static_cast<std::size_t>(rep)];

  // Tune the advised OC only (this is the whole point: 1/30 of the cost).
  const gpusim::Simulator sim(config_.profile.sim);
  const gpusim::RandomSearchTuner tuner(sim, config_.tuning_samples);
  util::Rng rng(util::hash_combine(pattern.hash(), g));
  const auto problem = gpusim::ProblemSize::paper_default(pattern.dims());
  auto result = tuner.tune(pattern, problem, advice.oc, dataset_->gpus[g], rng);
  if (!result.ok()) {
    // The representative crashed everywhere: fall back to the group's
    // members in win order.
    for (int member : merger_.members(advice.group)) {
      const auto& oc = gpusim::valid_combinations()[static_cast<std::size_t>(member)];
      result = tuner.tune(pattern, problem, oc, dataset_->gpus[g], rng);
      if (result.ok()) {
        advice.oc = oc;
        break;
      }
    }
  }
  if (!result.ok()) {
    throw std::runtime_error("StencilMart::advise: no runnable variant in group " +
                             advice.group_name);
  }
  advice.setting = *result.best_setting;
  advice.expected_time_ms = result.best_time_ms;
  return advice;
}

std::vector<AdviseBatchResult> StencilMart::advise_batch(
    std::span<const AdviseBatchItem> items) const {
  if (!trained_) throw std::logic_error("StencilMart::advise before train()");
  const std::size_t num_gpus = dataset_->num_gpus();
  std::vector<AdviseBatchResult> results(items.size());

  // Distinct (stencil, GPU) variants needed by the batch: each is
  // classified + tuned exactly once, however many items reference it.
  struct VariantJob {
    const stencil::StencilPattern* pattern = nullptr;
    std::size_t g = 0;
    OcAdvice advice{};
    std::string error;
  };
  std::vector<VariantJob> jobs;
  std::map<std::string, std::size_t> job_index;
  const auto job_for = [&](const stencil::StencilPattern& pattern,
                           std::size_t g) {
    std::string key = std::to_string(g);
    key += '|';
    key += std::to_string(pattern.dims());
    for (const auto& p : pattern.offsets()) {
      for (int a = 0; a < stencil::kMaxDims; ++a) {
        key += ',';
        key += std::to_string(p[a]);
      }
    }
    const auto [it, inserted] = job_index.try_emplace(key, jobs.size());
    if (inserted) jobs.push_back(VariantJob{&pattern, g, {}, {}});
    return it->second;
  };

  struct ItemPlan {
    bool valid = false;
    bool recommend = false;
    std::size_t own_job = 0;
    std::vector<std::size_t> rec_jobs;  // one per GPU, in GPU order
  };
  std::vector<ItemPlan> plans(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const AdviseBatchItem& item = items[i];
    if (item.pattern.dims() != config_.profile.dims) {
      results[i].error =
          "StencilMart::advise: pattern dimensionality differs from the "
          "training corpus";
      continue;
    }
    std::size_t g = num_gpus;
    for (std::size_t c = 0; c < num_gpus; ++c) {
      if (dataset_->gpus[c].name == item.gpu) {
        g = c;
        break;
      }
    }
    if (g == num_gpus) {
      results[i].error = "StencilMart: unknown GPU " + item.gpu;
      continue;
    }
    ItemPlan& plan = plans[i];
    plan.valid = true;
    plan.recommend = item.recommend;
    plan.own_job = job_for(item.pattern, g);
    if (item.recommend) {
      plan.rec_jobs.reserve(num_gpus);
      for (std::size_t c = 0; c < num_gpus; ++c) {
        plan.rec_jobs.push_back(job_for(item.pattern, c));
      }
    }
  }

  {
    // Tuning dominates the batch cost; jobs are independent and their RNG is
    // derived from (pattern hash, GPU), so the fan-out is order- and
    // thread-count-invariant.
    const util::PhaseTimer timer("advisor.batch_tune", jobs.size());
    util::parallel_for(jobs.size(), [&](std::size_t j) {
      try {
        jobs[j].advice = advise_variant(*jobs[j].pattern, jobs[j].g);
      } catch (const std::exception& e) {
        jobs[j].error = e.what();
      }
    });
  }

  // ONE batched regression call for every prediction the batch needs.
  const auto problem_for = [](const stencil::StencilPattern& p) {
    return gpusim::ProblemSize::paper_default(p.dims());
  };
  std::vector<VariantQuery> queries;
  std::vector<std::size_t> query_job;
  queries.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!jobs[j].error.empty()) continue;
    queries.push_back(
        {jobs[j].pattern, problem_for(*jobs[j].pattern),
         static_cast<std::size_t>(gpusim::oc_index(jobs[j].advice.oc)),
         jobs[j].advice.setting, jobs[j].g});
    query_job.push_back(j);
  }
  if (!queries.empty()) {
    const std::vector<double> predicted = regression_->predict_variants(queries);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      jobs[query_job[q]].advice.predicted_time_ms = predicted[q];
    }
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!results[i].error.empty()) continue;
    const ItemPlan& plan = plans[i];
    AdviseBatchResult& out = results[i];
    const VariantJob& own = jobs[plan.own_job];
    if (!own.error.empty()) {
      out.error = own.error;
      continue;
    }
    out.advice = own.advice;
    if (!plan.recommend) continue;
    // Rental fold over the per-GPU advised variants: the fastest predicted
    // time, and the cheapest time x $/hr among GPUs with a rental price.
    double best_time = std::numeric_limits<double>::infinity();
    double best_cost = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < num_gpus; ++g) {
      const VariantJob& job = jobs[plan.rec_jobs[g]];
      if (!job.error.empty()) {
        out.error = job.error;
        break;
      }
      const double predicted_time_ms = job.advice.predicted_time_ms;
      if (predicted_time_ms < best_time) {
        best_time = predicted_time_ms;
        out.rec.fastest_gpu = dataset_->gpus[g].name;
        out.rec.fastest_time_ms = predicted_time_ms;
      }
      const double price = dataset_->gpus[g].rental_usd_hr;
      if (price > 0.0) {
        const double score = predicted_time_ms * price;
        if (score < best_cost) {
          best_cost = score;
          out.rec.cheapest_gpu = dataset_->gpus[g].name;
          out.rec.cheapest_cost_score = score;
        }
      }
    }
  }
  return results;
}

}  // namespace smart::core
