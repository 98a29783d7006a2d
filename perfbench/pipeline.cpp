// The offline pipeline as an operator runs it (smartctl profile -> corpus
// -> smartctl train --corpus -> artifact), one-shot `smartctl advise
// --model` runs, the pipeline-3d workload, and the traced in-process
// pipeline every traced run reports.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "core/advisor_server.hpp"
#include "core/mart.hpp"
#include "core/profile_dataset.hpp"
#include "core/serialize.hpp"
#include "stencil/generator.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = smart::core;

/// One-shot advice runs per round: half after the round's CLI pipeline,
/// half after its daemon stopped.
constexpr int kColdPerRound = 4;
/// The stage spans must account for the CLI pipeline's wall time within
/// this share; the rest is process start-up and exit.
constexpr double kCoverageTolerance = 0.25;

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double file_mb(const std::string& path) {
  return static_cast<double>(read_file(path).size()) / (1024.0 * 1024.0);
}

core::ProfileConfig profile_config(int dims, std::uint64_t seed) {
  core::ProfileConfig config;
  config.dims = dims;
  config.num_stencils = kCorpusStencils;
  config.seed = seed;
  return config;
}

/// The MartConfig `smartctl train` uses (train(dataset) takes the profile
/// settings from the corpus).
core::MartConfig mart_config(int dims) {
  core::MartConfig config;
  config.profile.dims = dims;
  config.regression.instance_cap = 3000;
  return config;
}

smart::stencil::StencilPattern named_pattern(const NamedQuery& q, int dims) {
  if (q.shape == "box") return smart::stencil::make_box(dims, q.order);
  if (q.shape == "cross") return smart::stencil::make_cross(dims, q.order);
  return smart::stencil::make_star(dims, q.order);
}

/// What one in-process pipeline pass measured (per-layer metrics).
struct LayerTimes {
  double total_ms = 0.0;
  double generate_ms = 0.0;
  double sweep_ms = 0.0;
  double units = 0.0;
  double analyze_ms = 0.0;
  double evaluate_ms = 0.0;
  double save_corpus_ms = 0.0;
  double load_corpus_ms = 0.0;
  double train_ms = 0.0;
  double fit_ms = 0.0;
  double fit_calls = 0.0;
  double encode_ms = 0.0;
  double save_model_ms = 0.0;
  double load_model_ms = 0.0;
  double first_advise_ms = 0.0;
};

/// Times `fn` as one span named `name` (when tracing) and returns its ms.
template <typename Fn>
double timed(Tracer* tracer, const char* name, Fn&& fn) {
  const int span = tracer ? tracer->begin(name) : -1;
  const std::int64_t t0 = now_ns();
  fn();
  const double ms = ms_between(t0, now_ns());
  if (tracer) tracer->end(span);
  return ms;
}

/// generate -> sweep -> save/load corpus -> train -> save/load model ->
/// first advise, through the layers' public functions.
LayerTimes inprocess_pipeline(Tracer* tracer, int dims, std::uint64_t seed,
                              const std::string& corpus,
                              const std::string& model) {
  LayerTimes t;
  const std::int64_t start = now_ns();
  const int root = tracer ? tracer->begin("pipeline") : -1;
  const core::ProfileConfig config = profile_config(dims, seed);

  // Algorithm 1 on its own: the stencils of the corpus, orders 1..4.
  t.generate_ms = timed(tracer, "stencil.generate", [&] {
    smart::util::Rng rng(seed);
    for (int i = 0; i < kCorpusStencils; ++i) {
      smart::stencil::GeneratorConfig gc;
      gc.dims = dims;
      gc.order = 1 + i % 4;
      const smart::stencil::RandomStencilGenerator generator(gc);
      (void)generator.generate(rng);
    }
  });

  core::ProfileDataset dataset;
  auto before = counter_state();
  t.sweep_ms = timed(tracer, "core.profile.sweep",
                     [&] { dataset = core::build_profile_dataset(config); });
  auto after = counter_state();
  t.units = static_cast<double>(dataset.owned_units);
  t.analyze_ms = counter_delta(before, after, "profile.analyze").wall_ms;
  t.evaluate_ms = counter_delta(before, after, "profile.evaluate").wall_ms;

  t.save_corpus_ms = timed(tracer, "core.serialize.save_corpus",
                           [&] { core::save_dataset(dataset, corpus); });
  core::ProfileDataset loaded;
  t.load_corpus_ms = timed(tracer, "core.serialize.load_corpus",
                           [&] { loaded = core::load_dataset(corpus); });

  core::StencilMart mart(mart_config(dims));
  before = counter_state();
  t.train_ms = timed(tracer, "core.mart.train", [&] { mart.train(loaded); });
  after = counter_state();
  const CounterDelta fit = counter_delta(before, after, "ml.gbdt.fit");
  t.fit_ms = fit.wall_ms;
  t.fit_calls = static_cast<double>(fit.calls);
  t.encode_ms = counter_delta(before, after, "infer.encode").wall_ms;

  t.save_model_ms = timed(tracer, "core.serialize.save_model",
                          [&] { core::save_model(mart, model); });
  std::optional<core::StencilMart> served;
  t.load_model_ms = timed(tracer, "core.serialize.load_model",
                          [&] { served.emplace(core::load_model(model)); });
  t.first_advise_ms = timed(tracer, "core.mart.first_advise", [&] {
    core::AdviseBatchItem item;
    item.pattern = smart::stencil::make_star(dims, 2);
    (void)served->advise_batch({&item, 1});
  });
  if (tracer) tracer->end(root);
  t.total_ms = ms_between(start, now_ns());
  return t;
}

}  // namespace

CliPipeline run_cli_pipeline(const RunContext& ctx, int dims,
                             std::uint64_t corpus_seed,
                             const std::string& corpus,
                             const std::string& model) {
  CliPipeline result;
  const ProcResult profile = run_process(
      {ctx.smartctl, "profile", "--dims", std::to_string(dims), "--stencils",
       std::to_string(kCorpusStencils), "--seed", std::to_string(corpus_seed),
       "--out", corpus, "--checksum", "1"});
  if (!profile.ok) return result;
  const ProcResult train =
      run_process({ctx.smartctl, "train", "--corpus", corpus, "--dims",
                   std::to_string(dims), "--out", model});
  if (!train.ok) return result;
  const std::size_t at = profile.out.find("checksum ");
  if (at != std::string::npos) result.checksum = profile.out.substr(at + 9, 16);
  result.ok = true;
  result.pipeline_ms = profile.wall_ms + train.wall_ms;
  result.peak_rss_mb = std::max(profile.peak_rss_mb, train.peak_rss_mb);
  return result;
}

ColdAdvise::ColdAdvise(RunContext& ctx, std::string model, int dims)
    : ctx_(ctx),
      model_(std::move(model)),
      dims_(dims),
      rng_(derive_seed(ctx.seed, "cold-advise")) {}

void ColdAdvise::run(int count) {
  const char* shapes[] = {"star", "box", "cross"};
  for (int i = 0; i < count; ++i) {
    Run r;
    r.query = NamedQuery{shapes[rng_.below(3)], 1 + static_cast<int>(rng_.below(4)),
                         kGpus[rng_.below(4)]};
    const ProcResult run = run_process(
        {ctx_.smartctl, "advise", "--model", model_, "--dims", std::to_string(dims_),
         "--shape", r.query.shape, "--order", std::to_string(r.query.order),
         "--gpu", r.query.gpu});
    r.wall_ms = run.wall_ms;
    r.ok = run.ok;
    r.out = run.out;
    peak_rss_mb_ = std::max(peak_rss_mb_, run.peak_rss_mb);
    runs_.push_back(std::move(r));
  }
}

std::vector<double> ColdAdvise::finish() {
  // Every output must equal the in-process report of the same artifact.
  const core::StencilMart mart = core::load_model(model_);
  Tally tally;
  tally.attempted = runs_.size();
  std::vector<double> walls;
  for (const Run& r : runs_) {
    walls.push_back(r.wall_ms);
    core::AdviseBatchItem item;
    item.pattern = named_pattern(r.query, dims_);
    item.gpu = r.query.gpu;
    const auto result = mart.advise_batch({&item, 1});
    const std::string want =
        result[0].ok() ? core::advise_report(item.pattern, item.gpu,
                                             result[0].advice, result[0].rec)
                       : "";
    if (!r.ok) ++tally.err;
    else if (r.out != want) ++tally.mismatched;
    else ++tally.ok;
  }
  ctx_.report.phase("cold_advise", tally);
  ctx_.report.count_ops(tally.attempted, tally.failed());
  return walls;
}

void trace_pipeline_layers(RunContext& ctx, Tracer& tracer, int dims,
                           const std::string& model) {
  Report& report = ctx.report;
  const std::uint64_t seed = kCorpusSeed;
  // Untraced, traced, untraced: the traced pass minus the mean of the two
  // untraced ones is the tracing overhead.
  const LayerTimes before =
      inprocess_pipeline(nullptr, dims, seed, "plain.corpus", "plain.smart");
  const LayerTimes t =
      inprocess_pipeline(&tracer, dims, seed, "traced.corpus", model);
  const LayerTimes after =
      inprocess_pipeline(nullptr, dims, seed, "plain.corpus", "plain.smart");
  // The same pipeline through the CLI, for coverage and byte equality.
  const CliPipeline cli =
      run_cli_pipeline(ctx, dims, seed, "cli.corpus", "cli.smart");
  report.gate("traced.cli_pipeline", cli.ok);
  report.gate("traced.artifact_equals_cli",
              cli.ok && read_file(model) == read_file("cli.smart"));
  report.gate("traced.corpus_equals_cli",
              cli.ok && read_file("traced.corpus") == read_file("cli.corpus"));

  // What the two CLI processes do: sweep (with generation) + save corpus,
  // load corpus + train + save model.
  const double stage_ms = t.sweep_ms + t.save_corpus_ms + t.load_corpus_ms +
                          t.train_ms + t.save_model_ms;
  const double coverage = cli.pipeline_ms > 0 ? stage_ms / cli.pipeline_ms : 0.0;
  // Reported, not gated: the two sides are timed a second apart on a host
  // whose speed drifts by more than the process start-up being measured.
  const bool covered = coverage >= 1.0 - kCoverageTolerance &&
                       coverage <= 1.0 + kCoverageTolerance;
  report.note("pipeline coverage: stage spans " + number_text(stage_ms) +
              " ms of CLI pipeline_s " + number_text(cli.pipeline_ms) + " ms, " +
              (covered ? "within" : "OUTSIDE") + " the +-" +
              number_text(kCoverageTolerance) + " tolerance");

  report.metric("stencil.generate_ms", t.generate_ms, "ms");
  report.metric("core.profile.sweep_ms", t.sweep_ms, "ms");
  report.metric("core.profile.units", t.units, "count");
  report.metric("gpusim.analyze_ms", t.analyze_ms, "ms");
  report.metric("gpusim.evaluate_ms", t.evaluate_ms, "ms");
  report.metric("core.serialize.save_corpus_ms", t.save_corpus_ms, "ms");
  report.metric("core.serialize.load_corpus_ms", t.load_corpus_ms, "ms");
  report.metric("core.serialize.corpus_mb", file_mb("traced.corpus"), "MB");
  report.metric("core.serialize.save_model_ms", t.save_model_ms, "ms");
  report.metric("core.serialize.load_model_ms", t.load_model_ms, "ms");
  report.metric("core.serialize.model_mb", file_mb(model), "MB");
  report.metric("core.mart.train_ms", t.train_ms, "ms");
  report.metric("ml.gbdt.fit_ms", t.fit_ms, "ms");
  report.metric("ml.gbdt.fit_calls", t.fit_calls, "count");
  report.metric("core.mart.first_advise_ms", t.first_advise_ms, "ms");
  // infer.encode runs when a model is trained or loaded; the serve replay
  // adds its share (reloads) to this.
  report.metric("core.regression.encode_ms", t.encode_ms, "ms");
  report.metric("bench.pipeline_coverage", coverage, "ratio");
  report.metric("bench.trace_overhead_ms",
                t.total_ms - (before.total_ms + after.total_ms) / 2.0, "ms");
}

bool run_pipeline_3d(RunContext& ctx) {
  Report& report = ctx.report;
  ServeSpec spec;
  spec.dims = 3;
  spec.fixed_rate = 500.0;
  spec.ladder = false;  // slo_qps belongs to the serve workloads
  ctx.provenance.daemon_flags = spec.flags_text();
  const std::uint64_t seed = kCorpusSeed;
  if (ctx.trace) {
    Tracer tracer;
    trace_pipeline_layers(ctx, tracer, 3, "traced.smart");
    trace_serve_layers(ctx, tracer, spec, "traced.smart");
    tracer.write_jsonl(ctx.trace_path);
    return true;
  }

  // Each round: the set-up (a warm smartctl start and the in-process
  // reference corpus the checksum gate compares against), then a CLI
  // pipeline followed by one-shot advice runs; more of those after the
  // round's daemon stopped. Every daemon serves the first pipeline's
  // artifact. The samples of every metric span the whole run instead of
  // one stretch of the shared host's load.
  std::vector<double> setup_s;
  std::string reference;
  std::vector<double> pipeline_ms;
  double rss = 0.0;
  std::string corpus_bytes, model_bytes;
  ColdAdvise cold(ctx, "pipeline.smart", 3);
  RoundHooks hooks;
  hooks.prepare = [&](int) -> std::string {
    const std::int64_t t0 = now_ns();
    report.gate("setup.warm_start", run_process({ctx.smartctl, "gpus"}).ok);
    reference = hex64(core::dataset_checksum(
        core::build_profile_dataset(profile_config(3, seed))));
    setup_s.push_back(ms_between(t0, now_ns()) / 1000.0);

    const std::string tag = "pipeline" + std::to_string(pipeline_ms.size());
    const bool first = pipeline_ms.empty();
    const std::string corpus = first ? "pipeline.corpus" : "repeat.corpus";
    const std::string model = first ? "pipeline.smart" : "repeat.smart";
    const CliPipeline pipe = run_cli_pipeline(ctx, 3, seed, corpus, model);
    report.gate(tag + ".cli", pipe.ok);
    report.gate(tag + ".checksum_equals_inprocess", pipe.checksum == reference);
    if (!pipe.ok) return "";
    pipeline_ms.push_back(pipe.pipeline_ms);
    rss = std::max(rss, pipe.peak_rss_mb);
    // Same seed, same bytes across repetitions.
    if (first) {
      corpus_bytes = read_file(corpus);
      model_bytes = read_file(model);
    } else {
      report.gate(tag + ".bytes_repeat",
                  read_file(corpus) == corpus_bytes && read_file(model) == model_bytes);
    }
    cold.run(kColdPerRound / 2);
    return "pipeline.smart";
  };
  hooks.started = [](int) {};
  hooks.after = [&](int) { cold.run(kColdPerRound / 2); };
  if (!serve_stage(ctx, spec, hooks)) return false;
  const std::vector<double> cold_ms = cold.finish();
  rss = std::max({rss, cold.peak_rss_mb(), report.value("peak_rss_mb")});

  // ---- correctness of the saved files.
  report.gate("corpus.load_checksum_equals_inprocess",
              hex64(core::dataset_checksum(core::load_dataset("pipeline.corpus"))) ==
                  reference);
  std::ostringstream resaved;
  core::save_model(core::load_model("pipeline.smart"), resaved);
  report.gate("artifact.save_load_save_identical", resaved.str() == model_bytes);

  report.note("setup_s samples: " + samples_text(setup_s));
  report.note("pipeline_ms samples: " + samples_text(pipeline_ms));
  report.note("cold_advise_ms samples: " + samples_text(cold_ms));
  report.metric("setup_s", median(setup_s), "s");
  report.metric("pipeline_s", median(pipeline_ms) / 1000.0, "s");
  report.metric("cold_advise_ms", median(cold_ms), "ms");
  report.metric("peak_rss_mb", rss, "MB");
  return true;
}

}  // namespace perfbench
