// perfbench: the repository benchmark runner.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --smartctl PATH --workdir DIR [--git REV]
//
// Runs one named workload against the program under test (SMART_THREADS=2)
// and prints, as its last stdout line, {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// of the traced run with --trace 1. perfbench/run.py builds this binary
// and smartctl from source and invokes it.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "ml/simd.hpp"
#include "util/task_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The metric names each mode must report (BENCHMARK.json lists the same).
/// The client-timed serve latencies (p50_ms, p99_ms) and slo_qps are
/// printed in the row only: on a shared host they swing by several times
/// between runs of one seed. error_share is 0 on a correct run; the final
/// line's failed/attempted carry it.
const std::set<std::string> kEndToEnd = {"setup_s",      "pipeline_s",
                                         "cold_advise_ms", "serve_cpu_us",
                                         "reload_ms",    "peak_rss_mb"};

const std::set<std::string> kPerLayer = {
    "stencil.generate_ms",
    "core.profile.sweep_ms",
    "core.profile.units",
    "gpusim.analyze_ms",
    "gpusim.evaluate_ms",
    "core.serialize.save_corpus_ms",
    "core.serialize.load_corpus_ms",
    "core.serialize.corpus_mb",
    "core.serialize.save_model_ms",
    "core.serialize.load_model_ms",
    "core.serialize.model_mb",
    "core.mart.train_ms",
    "ml.gbdt.fit_ms",
    "ml.gbdt.fit_calls",
    "core.mart.first_advise_ms",
    "core.advisor_server.engine_p50_us",
    "core.advisor_server.engine_p99_us",
    "core.advisor_server.batches",
    "core.advisor_server.batch_size_mean",
    "core.advisor_server.memo_hit_ratio",
    "core.advisor_server.shed_busy",
    "core.advisor_server.shed_deadline",
    "core.advisor_server.batch_ms",
    "core.advisor_server.reload_ms",
    "core.mart.tune_ms",
    "core.mart.jobs",
    "core.mart.tune_us_per_job",
    "core.mart.tune_share_of_batch",
    "core.regression.predict_ms",
    "core.regression.predict_share_of_batch",
    "core.regression.encode_ms",
    "core.serve_protocol.parse_us",
    "util.transport.ping_rtt_us",
    "bench.gen_late_ms",
    "bench.pipeline_coverage",
    "bench.trace_overhead_ms",
};

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload pipeline-3d|serve-distinct|"
               "serve-zipf-reload --seed N --seconds S --trace 0|1 "
               "--smartctl PATH --workdir DIR [--git REV]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, smartctl, workdir, git = "unknown";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::atoll(value.c_str());
    else if (key == "--seconds") seconds = std::atof(value.c_str());
    else if (key == "--trace") trace = std::atoi(value.c_str());
    else if (key == "--smartctl") smartctl = value;
    else if (key == "--workdir") workdir = value;
    else if (key == "--git") git = value;
    else return usage("unknown option " + key);
  }
  if (workload.empty() || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      smartctl.empty() || workdir.empty()) {
    return usage("missing or invalid arguments");
  }
  if (workload != "pipeline-3d" && workload != "serve-distinct" &&
      workload != "serve-zipf-reload") {
    return usage("unknown workload " + workload);
  }

  // The program under test runs at SMART_THREADS=2, in its processes and in
  // the traced run's in-process calls alike (set before the pool exists).
  ::setenv("SMART_THREADS", std::to_string(kProgramThreads).c_str(), 1);
  std::signal(SIGPIPE, SIG_IGN);
  if (::chdir(workdir.c_str()) != 0) return usage("cannot enter " + workdir);

  RunContext ctx;
  ctx.smartctl = smartctl;
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.trace = trace == 1;
  ctx.trace_path = "trace-" + workload + "-" + std::to_string(seed) + ".jsonl";
  Provenance& prov = ctx.provenance;
  prov.workload = workload;
  prov.seed = ctx.seed;
  prov.threads = smart::util::parallel_threads();
  prov.hw_threads = std::thread::hardware_concurrency();
  prov.isa = smart::ml::dispatch_isa();
  prov.build_type = PERFBENCH_BUILD_TYPE;
  prov.git = git;

  bool complete = false;
  try {
    self_check(ctx.report);
    if (workload == "pipeline-3d") {
      complete = run_pipeline_3d(ctx);
    } else {
      ServeSpec spec;
      if (workload == "serve-zipf-reload") {
        spec.fixed_rate = 8000.0;
        spec.zipf = true;
        spec.reload_traffic = true;
      }
      complete = run_serve(ctx, spec);
    }
  } catch (const std::exception& e) {
    ctx.report.note(std::string("run aborted: ") + e.what());
    ctx.report.count_ops(1, 1);
  }

  const std::set<std::string>& expected = ctx.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : expected) {
    if (!ctx.report.has(name)) {
      ctx.report.note("metric not measured: " + name);
      ctx.report.metric(name, 0.0, "missing");
      complete = false;
    }
  }
  if (ctx.trace) ctx.report.note("spans written to " + workdir + "/" + ctx.trace_path);
  ctx.report.detail("bench.peak_rss_mb", peak_rss_mb(::getpid()), "MB");
  ctx.report.print(prov, complete);
  return 0;
}
