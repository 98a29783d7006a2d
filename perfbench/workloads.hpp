// The named workloads and the steps they share. A workload run measures
// its end-to-end metrics through the program as users run it (smartctl
// processes and a `smartctl serve --socket` daemon); a traced run
// (--trace 1) replays the same inputs through the layers' public functions
// in-process and reports per-layer metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// SMART_THREADS of every program process and of the in-process layers.
inline constexpr int kProgramThreads = 2;
/// Paper scale: stencils per corpus.
inline constexpr int kCorpusStencils = 500;
/// The seed of every workload's `smartctl profile` corpus. The operator's
/// corpus is the same in every run: its artifact's size, and with it
/// pipeline_s, cold_advise_ms and reload_ms, varies by up to ~12% between
/// corpus seeds, which would otherwise add to the run-to-run spread. The
/// run's --seed drives the request streams and the one-shot queries.
inline constexpr std::uint64_t kCorpusSeed = 2022;

struct RunContext {
  std::string smartctl;  // path of the program under test
  std::uint64_t seed = 0;
  double seconds = 10.0;  // measured time of one run
  bool trace = false;
  std::string trace_path;  // span dump of the traced run
  Report report;
  Provenance provenance;
};

/// How a workload drives the daemon.
struct ServeSpec {
  int dims = 2;
  /// Requests/s of the fixed-rate phase. Never-seen stencils run at 2500,
  /// not 4000: when the shared host is busy the daemon's knee falls to
  /// ~3000 req/s and 4000 would overflow its queue into busy sheds.
  double fixed_rate = 2500.0;
  double fixed_share = 0.6;    // fixed phase length, as a share of --seconds
  double probe_share = 0.04;   // one ladder probe, as a share of --seconds
  bool zipf = false;           // Zipf pool (memo hits) vs never-seen stencils
  std::size_t zipf_pool = 2000;
  bool reload_traffic = false;  // control connection: reloads + pings
  bool ladder = true;           // search slo_qps on the last round's daemon
  int max_batch = 64;           // daemon --max-batch
  int max_wait_us = 200;        // daemon --max-wait-us

  std::vector<std::string> daemon_flags() const {
    return {"--max-batch", std::to_string(max_batch), "--max-wait-us",
            std::to_string(max_wait_us)};
  }
  /// daemon_flags() as one string, for the provenance row.
  std::string flags_text() const {
    std::string text;
    for (const std::string& flag : daemon_flags()) {
      text += (text.empty() ? "" : " ") + flag;
    }
    return text;
  }
};

// ---- steps shared by the workloads (pipeline.cpp)

/// profile -> corpus file -> train --corpus -> artifact, as two smartctl
/// processes. pipeline_ms is the sum of the two process walls.
struct CliPipeline {
  bool ok = false;
  double pipeline_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::string checksum;  // `profile --checksum 1` digest
};
CliPipeline run_cli_pipeline(const RunContext& ctx, int dims,
                             std::uint64_t corpus_seed,
                             const std::string& corpus,
                             const std::string& model);

/// A one-shot advise query: named shapes are the only stencils `advise
/// --model` accepts.
struct NamedQuery {
  std::string shape;
  int order = 1;
  std::string gpu;
};

/// One-shot `smartctl advise --model` runs on seeded named-shape queries,
/// timed from spawn to exit. Runs are taken in chunks spread over the
/// measured phase; finish() checks every output byte-for-byte against the
/// in-process advise_report of the same artifact.
class ColdAdvise {
 public:
  ColdAdvise(RunContext& ctx, std::string model, int dims);
  void run(int count);
  /// Verifies the outputs, reports the phase, returns the walls in ms.
  std::vector<double> finish();
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  struct Run {
    NamedQuery query;
    double wall_ms = 0.0;
    bool ok = false;
    std::string out;
  };
  RunContext& ctx_;
  std::string model_;
  int dims_;
  SplitMix rng_;
  std::vector<Run> runs_;
  double peak_rss_mb_ = 0.0;
};

/// The per-layer part of a traced run shared by every workload: the
/// in-process pipeline (generate -> sweep -> save/load corpus -> train ->
/// save/load model -> first advise) untraced, traced and untraced again,
/// and the CLI pipeline once for coverage. Writes the artifact to `model`.
void trace_pipeline_layers(RunContext& ctx, Tracer& tracer, int dims,
                           const std::string& model);

/// The serve-layer part of a traced run: the workload's warm-up and
/// fixed-phase lines replayed on their schedule through an in-process
/// AdvisorServer serving `model`, the protocol parser over the same lines,
/// and `ping` round trips on a daemon socket.
void trace_serve_layers(RunContext& ctx, Tracer& tracer, const ServeSpec& spec,
                        const std::string& model);

/// The workload's part of each round of a serve stage.
struct RoundHooks {
  /// Before round r's daemon starts: returns the artifact it serves, or ""
  /// to stop the run.
  std::function<std::string(int)> prepare;
  /// Once round r's daemon is started and warmed.
  std::function<void(int)> started;
  /// After round r's daemon stopped.
  std::function<void(int)> after;
};

/// The daemon side of a workload, in rounds: each starts a daemon on the
/// artifact prepare() returns and warms it, runs one fixed-rate part and
/// the reloads, and stops it; the last round's daemon first runs the
/// slo_qps ladder. Every reply is verified. Adds serve_cpu_us, reload_ms
/// and peak_rss_mb, and p50_ms, p99_ms and slo_qps as details.
bool serve_stage(RunContext& ctx, const ServeSpec& spec, const RoundHooks& hooks);

/// The warm-up and fixed-phase request lines a serve workload sends for
/// `seed` (with their due offsets), as one text — the determinism probe.
std::string request_stream(std::uint64_t seed, const ServeSpec& spec,
                           double seconds);

// ---- workloads

bool run_pipeline_3d(RunContext& ctx);
bool run_serve(RunContext& ctx, const ServeSpec& spec);

// ---- self-checks of the benchmark's own parts (selfcheck.cpp)

void self_check(Report& report);

}  // namespace perfbench
