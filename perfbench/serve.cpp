// Serve workloads: a `smartctl serve --socket` daemon driven open-loop by
// the single-process load generator (serve_client), the slo_qps rate
// ladder, and the byte-for-byte check of every reply against in-process
// payloads. The traced run replays the same request lines through an
// in-process AdvisorServer.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "core/advisor_server.hpp"
#include "core/serialize.hpp"
#include "core/serve_protocol.hpp"
#include "serve_client.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = smart::core;

constexpr const char* kSocket = "serve.sock";
constexpr int kIdleReloadsPerRound = 4;
/// One-shot advice runs per round of a serve workload: two between the
/// CLI pipeline and the daemon start (outside the timed set-up), the rest
/// after the daemon stopped.
constexpr int kColdAdvisePerRound = 5;
constexpr int kColdAdviseBeforeDaemon = 2;
constexpr int kPingProbes = 300;
/// Reloads in each fixed-rate part of a workload with reload traffic.
constexpr int kReloadsPerPart = 2;
constexpr double kPingEveryS = 0.1;
constexpr std::size_t kWarmupRequests = 256;
/// Requests/s of a warm-up at least: well below every workload's knee.
constexpr double kMinWarmupRate = 2500.0;
/// A serve stage runs in rounds, each on a daemon of its own (set-up,
/// fixed-rate part, reloads, the workload's other runs), so each metric's
/// samples span the whole run and several daemon processes: the shared
/// host's speed holds for stretches of seconds. The slo_qps ladder search
/// runs once, on the last round's daemon.
constexpr int kRounds = 10;
/// The ladder's limit applies to this percentile: a p99 limit failed at a
/// sixth of capacity whenever the shared host stalled threads for 10 ms,
/// which it does even when idle.
constexpr double kSloPercentile = 90.0;

/// The stencils and queries of one workload run, in generation order.
class QuerySource {
 public:
  QuerySource(std::uint64_t seed, const ServeSpec& spec)
      : stream_(derive_seed(seed, "stencils"), spec.dims),
        rng_(derive_seed(seed, "queries")) {
    if (spec.zipf) {
      zipf_.emplace(spec.zipf_pool, 1.0);
      for (std::size_t i = 0; i < spec.zipf_pool; ++i) pool_.push_back(fresh());
    }
  }

  /// The next request: a never-seen stencil, or a Zipf draw from the pool.
  Query next() { return zipf_ ? pool_[zipf_->sample(rng_)] : fresh(); }

  /// A query on a never-seen stencil; 3:1 advise:predict, uniform GPU.
  Query fresh() {
    Query q;
    q.pattern = static_cast<int>(catalog_.size());
    catalog_.push_back(stream_.next());
    offsets_.push_back(offsets_text(catalog_.back()));
    q.advise = rng_.below(4) != 3;
    q.gpu = kGpus[rng_.below(4)];
    return q;
  }

  /// Poisson arrival offsets (ns) at `rate` per second over `seconds`.
  std::vector<std::int64_t> arrivals(double rate, double seconds) {
    std::vector<std::int64_t> due;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng_.uniform()) / rate;
      if (t >= seconds) break;
      due.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    return due;
  }

  const std::vector<Query>& pool() const { return pool_; }
  const std::vector<smart::stencil::StencilPattern>& catalog() const {
    return catalog_;
  }
  const std::vector<std::string>& offsets() const { return offsets_; }

 private:
  StencilStream stream_;
  SplitMix rng_;
  std::optional<Zipf> zipf_;
  std::vector<Query> pool_;
  std::vector<smart::stencil::StencilPattern> catalog_;
  std::vector<std::string> offsets_;
};

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Expected reply payload per (pattern, verb, GPU) key, computed in-process
/// from the same artifact through StencilMart::advise_batch. The daemon
/// reloads the same file, so the payload of a key is the same in every
/// epoch.
class Reference {
 public:
  Reference(const core::StencilMart& mart, const QuerySource& source)
      : mart_(mart), source_(source) {}

  /// Counts the answered ok replies of `phase` whose bytes differ from the
  /// in-process reply, and adds them to the phase tally.
  std::uint64_t verify(Phase& phase) {
    compute(phase.queries);
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < phase.sent; ++i) {
      if (phase.recv[i] == 0 || !phase.replies[i].starts_with("ok ")) continue;
      const Entry& want = payloads_.at(key(phase.queries[i]));
      const std::string expect = std::string(want.ok ? "ok " : "err ") + "r" +
                                 std::to_string(phase.id_base + i) + ' ' +
                                 want.payload;
      if (phase.replies[i] != expect) ++mismatched;
    }
    phase.tally.mismatched += mismatched;
    // Never-seen streams do not repeat keys: keep the cache small.
    if (payloads_.size() > kMaxCachedPayloads) payloads_.clear();
    return mismatched;
  }

 private:
  static constexpr std::size_t kMaxCachedPayloads = 20000;

  struct Entry {
    bool ok = false;
    std::string payload;
  };

  static std::string key(const Query& q) {
    return std::to_string(q.pattern) + (q.advise ? "|a|" : "|p|") + q.gpu;
  }

  void compute(const std::vector<Query>& queries) {
    constexpr std::size_t kChunk = 512;
    std::vector<core::AdviseBatchItem> items;
    std::vector<std::string> keys;
    std::vector<bool> advise;
    const auto flush = [&] {
      const auto results = mart_.advise_batch(items);
      for (std::size_t u = 0; u < results.size(); ++u) {
        Entry& entry = payloads_[keys[u]];
        if (!results[u].ok()) {
          entry = {false, results[u].error};
        } else if (advise[u]) {
          entry = {true, core::serve::escape_text(core::advise_report(
                             items[u].pattern, items[u].gpu, results[u].advice,
                             results[u].rec))};
        } else {
          const double ms = results[u].advice.predicted_time_ms;
          entry = {true, "predicted_ms=" + hexfloat(ms) +
                             " ms=" + smart::util::format_double(ms, 3)};
        }
      }
      items.clear();
      keys.clear();
      advise.clear();
    };
    for (const Query& q : queries) {
      std::string k = key(q);
      if (!payloads_.try_emplace(k).second) continue;
      core::AdviseBatchItem item;
      item.pattern = source_.catalog()[static_cast<std::size_t>(q.pattern)];
      item.gpu = q.gpu;
      item.recommend = q.advise;
      items.push_back(std::move(item));
      keys.push_back(std::move(k));
      advise.push_back(q.advise);
      if (items.size() == kChunk) flush();
    }
    if (!items.empty()) flush();
  }

  const core::StencilMart& mart_;
  const QuerySource& source_;
  std::map<std::string, Entry> payloads_;
};

/// Latencies (ms, from due time) of a phase. With `failures_as_inf`,
/// unsent, unanswered and err requests count as +inf, so they miss any
/// limit; otherwise they are left out.
std::vector<double> latencies(const Phase& phase, bool failures_as_inf) {
  std::vector<double> out;
  out.reserve(phase.due.size());
  for (std::size_t i = 0; i < phase.due.size(); ++i) {
    const bool ok = i < phase.sent && phase.recv[i] != 0 &&
                    phase.replies[i].starts_with("ok ");
    if (ok) out.push_back(ms_between(phase.start + phase.due[i], phase.recv[i]));
    else if (failures_as_inf) out.push_back(INFINITY);
  }
  return out;
}

/// Generator lateness (ms): how long after its due time each request was
/// written.
std::vector<double> lateness(const Phase& phase) {
  std::vector<double> out;
  for (std::size_t i = 0; i < phase.sent; ++i) {
    out.push_back(ms_between(phase.start + phase.due[i], phase.sent_at[i]));
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, q);
}

/// The q-th percentile of each `window_s` span of due time, then the
/// median of those: one scheduling stall of the shared host cannot move
/// it, while a sustained backlog (which fills most windows) still does.
/// `values[i]` belongs to request i of `phase`.
double windowed_percentile(const Phase& phase, const std::vector<double>& values,
                           double window_s, double q) {
  std::vector<std::vector<double>> windows;
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto w = static_cast<std::size_t>(phase.due[i] / width);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) per_window.push_back(percentile(std::move(w), q));
  }
  return median(per_window);
}

/// The slo_qps pass rule of one ladder probe (split into four windows):
/// every request sent and answered ok, and both the latency p90 and the
/// generator-lateness p90 (no growing send backlog) within the limit in
/// the median window.
bool probe_passes(const Phase& phase, double window_s) {
  if (phase.aborted || phase.tally.failed() > 0 || phase.control.failed() > 0) {
    return false;
  }
  return windowed_percentile(phase, latencies(phase, true), window_s,
                             kSloPercentile) <= kSloLimitMs &&
         windowed_percentile(phase, lateness(phase), window_s,
                             kSloPercentile) <= kSloLimitMs;
}

/// "key=value" fields of a stats reply.
std::map<std::string, double> stats_fields(const std::string& reply) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; (i = reply.find('=', i)) != std::string::npos; ++i) {
    const std::size_t space = reply.rfind(' ', i);
    const std::size_t k = space == std::string::npos ? 0 : space + 1;
    out[reply.substr(k, i - k)] = std::strtod(reply.c_str() + i + 1, nullptr);
  }
  return out;
}

double field(const std::map<std::string, double>& fields, const std::string& name) {
  const auto it = fields.find(name);
  return it == fields.end() ? -1.0 : it->second;
}

std::vector<std::string> daemon_argv(const RunContext& ctx, const ServeSpec& spec,
                                     const std::string& model) {
  std::vector<std::string> argv{ctx.smartctl, "serve", "--model", model,
                                "--socket", kSocket};
  const std::vector<std::string> flags = spec.daemon_flags();
  argv.insert(argv.end(), flags.begin(), flags.end());
  return argv;
}

void note_phase(Report& report, const std::string& name, const Phase& phase) {
  const Tail t = tail_summary(latencies(phase, false));
  const Tail l = tail_summary(lateness(phase));
  report.note(name + ": samples=" + std::to_string(t.samples) +
              " p50_ms=" + number_text(t.p50) + " p" + number_text(t.top_q) +
              "_ms=" + number_text(t.top) + " gen_late_p50_ms=" +
              number_text(l.p50) + " gen_late_p" + number_text(l.top_q) +
              "_ms=" + number_text(l.top) +
              (phase.aborted ? " (stopped early: limit already missed)" : ""));
}

/// One workload's traffic: builds the phases from the seeded query source,
/// runs them, and checks every reply against the in-process payloads as
/// soon as its phase ends, so only one phase's replies are held at a time.
class Traffic {
 public:
  Traffic(RunContext& ctx, const ServeSpec& spec)
      : ctx_(ctx), spec_(spec), source_(ctx.seed, spec) {
    // Generation order is fixed (warm-up first, then the fixed-rate parts),
    // so the traced run rebuilds the same lines from the same seed.
    warmup_ = build(std::vector<std::int64_t>(kWarmupRequests, 0), true);
    const double seconds = spec.fixed_share * ctx.seconds / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      fixed_.push_back(build(source_.arrivals(spec.fixed_rate, seconds), false));
      if (spec.reload_traffic) add_control(fixed_.back(), seconds, kReloadsPerPart);
    }
  }
  // reference_ points into source_.
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  const Phase& warmup() const { return warmup_; }
  /// The fixed-rate phase, in one part per round.
  const std::vector<Phase>& fixed() const { return fixed_; }

  /// The artifact the daemon serves; replies are checked against it.
  void use_model(const std::string& model) {
    reference_.reset();
    mart_.emplace(core::load_model(model));
    reference_.emplace(*mart_, source_);
  }

  /// Runs a phase on `client`, then verifies its replies and enters its
  /// tallies in the report. Ladder probes add only their mismatches to the
  /// top-level count: overload sheds above the knee are what the ladder
  /// looks for, not failures.
  void run(LoadClient& client, Phase& phase, const std::string& name) {
    client.run(phase);
    check(phase, name);
  }

  /// The verification and accounting half of run().
  void check(Phase& phase, const std::string& name) {
    const std::uint64_t mismatched = reference_->verify(phase);
    ctx_.report.phase(name, phase.tally);
    if (name.starts_with("ladder")) {
      ctx_.report.count_ops(phase.sent, mismatched);
      ctx_.report.count_ops(phase.control.attempted, phase.control.mismatched);
    } else {
      ctx_.report.count_ops(phase.tally.attempted, phase.tally.failed());
      ctx_.report.count_ops(phase.control.attempted, phase.control.failed());
    }
  }

  /// Reads `stats` once for the phase just finished (it resets on read).
  std::map<std::string, double> read_stats(LoadClient& client) {
    return stats_fields(client.call("stats s" + std::to_string(next_id_++)));
  }

  /// Binary search over the fixed rate ladder for the highest rung that
  /// passes; each probe runs on never-used requests.
  double ladder(LoadClient& client) {
    const double seconds = spec_.probe_share * ctx_.seconds;
    const std::vector<int> rungs = rate_ladder();
    int lo = -1;
    int hi = static_cast<int>(rungs.size());
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const int rate = rungs[static_cast<std::size_t>(mid)];
      // A rung fails only if two probes in a row miss: one stall of the
      // shared host must not decide the search.
      bool pass = false;
      for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
        Phase probe = build(source_.arrivals(rate, seconds), false);
        probe.abortable = true;
        // One reload at the middle of every probe: each probe sees the
        // same write path, whichever rungs the search visits.
        if (spec_.reload_traffic) add_control(probe, seconds, 1);
        const std::string name = "ladder@" + std::to_string(rate);
        run(client, probe, name);
        pass = probe_passes(probe, seconds / 4.0);
        note_phase(ctx_.report, name + (pass ? " pass" : " miss"), probe);
        read_stats(client);
      }
      (pass ? lo : hi) = mid;
    }
    return lo >= 0 ? rungs[static_cast<std::size_t>(lo)] : 0.0;
  }

 private:
  Phase build(std::vector<std::int64_t> due, bool warmup) {
    Phase phase;
    phase.due = std::move(due);
    phase.id_base = next_id_;
    for (std::size_t i = 0; i < phase.due.size(); ++i) {
      phase.queries.push_back(warmup ? source_.fresh() : source_.next());
    }
    if (warmup) {
      // A Zipf pool is sent once in full, so the memo starts warm. The
      // warm-up is paced at the fixed rate (at least kMinWarmupRate), which
      // stays within the daemon's queue and per-connection in-flight caps.
      for (const Query& q : source_.pool()) phase.queries.push_back(q);
      phase.due.clear();
      const double rate = std::max(spec_.fixed_rate, kMinWarmupRate);
      for (std::size_t i = 0; i < phase.queries.size(); ++i) {
        phase.due.push_back(static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / rate));
      }
    }
    for (std::size_t i = 0; i < phase.queries.size(); ++i) {
      phase.lines.push_back(request_line(phase.queries[i],
                                         "r" + std::to_string(next_id_ + i),
                                         source_.offsets()) +
                            '\n');
    }
    next_id_ += phase.queries.size();
    return phase;
  }

  /// Control traffic: `reloads` reloads evenly spaced over the phase (the
  /// first half a spacing in), `ping` every kPingEveryS.
  static void add_control(Phase& phase, double seconds, int reloads) {
    for (int k = 0; k < reloads; ++k) {
      const double t = (k + 0.5) * seconds / reloads;
      phase.reload_due.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    for (double t = kPingEveryS; t < seconds; t += kPingEveryS) {
      phase.ping_due.push_back(static_cast<std::int64_t>(t * 1e9));
    }
  }

  RunContext& ctx_;
  const ServeSpec& spec_;
  QuerySource source_;
  std::size_t next_id_ = 0;
  Phase warmup_;
  std::vector<Phase> fixed_;
  std::optional<core::StencilMart> mart_;
  std::optional<Reference> reference_;
};

}  // namespace

std::string request_stream(std::uint64_t seed, const ServeSpec& spec,
                           double seconds) {
  RunContext ctx;
  ctx.seed = seed;
  ctx.seconds = seconds;
  const Traffic traffic(ctx, spec);
  std::vector<const Phase*> phases{&traffic.warmup()};
  for (const Phase& part : traffic.fixed()) phases.push_back(&part);
  std::string text;
  for (const Phase* phase : phases) {
    for (std::size_t i = 0; i < phase->lines.size(); ++i) {
      text += std::to_string(phase->due[i]) + ' ' + phase->lines[i];
    }
    for (const std::int64_t due : phase->reload_due) {
      text += std::to_string(due) + " reload\n";
    }
  }
  return text;
}

bool serve_stage(RunContext& ctx, const ServeSpec& spec, const RoundHooks& hooks) {
  Report& report = ctx.report;
  Traffic traffic(ctx, spec);
  std::vector<double> fixed_lat, fixed_late, reload_ms, rss_mb;
  double cpu_ms = 0.0;
  std::uint64_t answered = 0;
  double slo = 0.0;
  // Half of a round's idle reloads before its fixed-rate part and half
  // after, so they sample two moments of the host's load.
  const auto idle_reloads = [&](std::optional<LoadClient>& client, const std::string& tag) {
    for (int i = 0; i < kIdleReloadsPerRound / 2; ++i) {
      const std::int64_t t0 = now_ns();
      const std::string reply = client->call("reload c" + std::to_string(i));
      report.gate(tag + ".idle_reload", reply.find(" reloaded epoch=") != std::string::npos);
      reload_ms.push_back(ms_between(t0, now_ns()));
    }
  };
  for (int r = 0; r < kRounds; ++r) {
    const std::string tag = "round" + std::to_string(r);
    const std::string model = hooks.prepare(r);
    if (model.empty()) return false;
    Daemon daemon;
    const bool started = daemon.start(daemon_argv(ctx, spec, model));
    report.gate(tag + ".daemon_start", started);
    if (!started) return false;
    std::optional<LoadClient> client;
    client.emplace(kSocket, 2, spec.reload_traffic);
    Phase warm = traffic.warmup();
    client->run(warm);
    const bool warmed = warm.tally.failed() == 0 && warm.sent == warm.due.size();
    report.gate(tag + ".warmup_answered", warmed);
    if (!warmed) return false;
    hooks.started(r);
    // Every round serves the same artifact bytes (the hooks gate that), so
    // the first round's model is the reference for all of them.
    if (r == 0) traffic.use_model(model);
    traffic.check(warm, tag + ".warmup");
    if (!spec.reload_traffic) idle_reloads(client, tag);
    traffic.read_stats(*client);  // closes the warm-up stats window

    Phase fixed = traffic.fixed()[static_cast<std::size_t>(r)];
    const double cpu_before = daemon.cpu_ms();
    client->run(fixed);
    cpu_ms += daemon.cpu_ms() - cpu_before;
    answered += fixed.tally.ok;
    traffic.check(fixed, tag + ".fixed");
    reload_ms.insert(reload_ms.end(), fixed.reload_ms.begin(), fixed.reload_ms.end());
    const auto stats = traffic.read_stats(*client);
    note_phase(report, tag + ".fixed@" + number_text(spec.fixed_rate), fixed);
    report.note(tag + ".fixed daemon stats: served=" + number_text(field(stats, "served")) +
                " memo_hits=" + number_text(field(stats, "memo_hits")) +
                " batches=" + number_text(field(stats, "batches")));
    report.gate(tag + ".daemon_stats_match",
                field(stats, "served") + field(stats, "errors") ==
                    static_cast<double>(fixed.sent));
    const std::vector<double> lat = latencies(fixed, true);
    const std::vector<double> late = lateness(fixed);
    fixed_lat.insert(fixed_lat.end(), lat.begin(), lat.end());
    fixed_late.insert(fixed_late.end(), late.begin(), late.end());
    // Peak memory at the fixed rate: read before the ladder, whose overload
    // probes buffer as much as the search pushes past the knee.
    rss_mb.push_back(daemon.peak_rss_mb());

    if (!spec.reload_traffic) idle_reloads(client, tag);
    if (spec.ladder && r + 1 == kRounds) slo = traffic.ladder(*client);
    client.reset();
    report.gate(tag + ".daemon_stop", daemon.stop());
    hooks.after(r);
  }

  const Tail tail = tail_summary(fixed_lat);
  report.note("reload_ms samples: " + samples_text(reload_ms));
  report.metric("serve_cpu_us",
                answered > 0 ? cpu_ms * 1e3 / static_cast<double>(answered) : 0.0,
                "us");
  report.metric("reload_ms", median(reload_ms), "ms");
  report.metric("peak_rss_mb", median(rss_mb), "MB");
  report.detail("p50_ms", median(fixed_lat), "ms");
  report.detail("p99_ms", percentile(fixed_lat, 99.0), "ms");
  report.detail("tail_percentile", tail.top_q, "%");
  report.detail("tail_ms", tail.top, "ms");
  report.detail("latency_samples", static_cast<double>(tail.samples), "count");
  report.detail("bench.gen_late_ms", percentile(fixed_late, 99.0), "ms");
  if (spec.ladder) report.detail("slo_qps", slo, "1/s");
  return true;
}

bool run_serve(RunContext& ctx, const ServeSpec& spec) {
  Report& report = ctx.report;
  ctx.provenance.daemon_flags = spec.flags_text();
  if (ctx.trace) {
    Tracer tracer;
    trace_pipeline_layers(ctx, tracer, spec.dims, "traced.smart");
    trace_serve_layers(ctx, tracer, spec, "traced.smart");
    tracer.write_jsonl(ctx.trace_path);
    return true;
  }

  // Each round's set-up: corpus -> artifact -> daemon -> warm-up, timed
  // from the CLI pipeline's start until the warm-up is answered. One-shot
  // advice runs while no daemon runs: after the pipeline (not counted in
  // the set-up) and after the daemon stopped.
  const std::string model = "serve.smart";
  std::vector<double> setup_s, pipeline_ms;
  std::string first_model_bytes;
  ColdAdvise cold(ctx, model, spec.dims);
  std::int64_t setup_start = 0;
  RoundHooks hooks;
  hooks.prepare = [&](int round) -> std::string {
    const std::string tag = "round" + std::to_string(round);
    setup_start = now_ns();
    const CliPipeline pipe =
        run_cli_pipeline(ctx, spec.dims, kCorpusSeed, "serve.corpus", model);
    report.gate(tag + ".cli_pipeline", pipe.ok);
    if (!pipe.ok) return "";
    pipeline_ms.push_back(pipe.pipeline_ms);
    // Same seed, same bytes: every round builds the same artifact.
    const std::string bytes = read_file(model);
    if (round == 0) first_model_bytes = bytes;
    else report.gate(tag + ".artifact_repeats", bytes == first_model_bytes);
    const std::int64_t pause = now_ns();
    cold.run(kColdAdviseBeforeDaemon);
    setup_start += now_ns() - pause;
    return model;
  };
  hooks.started = [&](int) {
    setup_s.push_back(ms_between(setup_start, now_ns()) / 1000.0);
  };
  hooks.after = [&](int) { cold.run(kColdAdvisePerRound - kColdAdviseBeforeDaemon); };
  if (!serve_stage(ctx, spec, hooks)) return false;

  report.note("setup_s samples: " + samples_text(setup_s));
  report.metric("setup_s", median(setup_s), "s");
  report.note("pipeline_ms samples: " + samples_text(pipeline_ms));
  report.metric("pipeline_s", median(pipeline_ms) / 1000.0, "s");
  const std::vector<double> cold_ms = cold.finish();
  report.note("cold_advise_ms samples: " + samples_text(cold_ms));
  report.metric("cold_advise_ms", median(cold_ms), "ms");
  return true;
}

void trace_serve_layers(RunContext& ctx, Tracer& tracer, const ServeSpec& spec,
                        const std::string& model) {
  Report& report = ctx.report;
  Traffic traffic(ctx, spec);
  const core::ModelProvider provider = [model] {
    core::ModelSnapshot snapshot;
    snapshot.mart = std::make_shared<const core::StencilMart>(core::load_model(model));
    return snapshot;
  };
  core::ServeConfig config;
  config.max_batch = spec.max_batch;
  config.max_wait_us = spec.max_wait_us;
  core::AdvisorServer server(provider(), config, provider);

  const auto strip = [](const std::string& line) {
    return std::string_view(line.data(), line.size() - 1);
  };
  const auto at = [](std::int64_t ns) {
    return Clock::time_point(std::chrono::nanoseconds(ns));
  };
  // Submits a phase's lines on its schedule; records submit and reply
  // (sink) times per request.
  const auto replay = [&](const Phase& phase, std::vector<std::int64_t>& submitted,
                          std::vector<std::int64_t>& replied, std::int64_t start) {
    submitted.assign(phase.lines.size(), 0);
    replied.assign(phase.lines.size(), 0);
    for (std::size_t i = 0; i < phase.lines.size(); ++i) {
      std::this_thread::sleep_until(at(start + phase.due[i]));
      submitted[i] = now_ns();
      server.submit(strip(phase.lines[i]),
                    [&replied, i](const std::string&) { replied[i] = now_ns(); });
    }
    server.drain();
  };
  std::vector<std::int64_t> submitted, replied;
  {
    const ScopedSpan span(tracer, "core.advisor_server.warmup");
    replay(traffic.warmup(), submitted, replied, now_ns());
  }

  // The fixed-rate parts on their schedule, back to back; reloads (if the
  // workload has them) on a second thread at the offsets of the daemon's
  // control connection.
  std::vector<double> reload_ms, late, engine_us;
  bool reloads_ok = true;
  std::size_t n = 0;
  const core::ServeCounters before = server.counters_snapshot();
  const auto counters_before = counter_state();
  for (const Phase& fixed : traffic.fixed()) {
    const int replay_span = tracer.begin("core.advisor_server.replay");
    const std::int64_t start = now_ns() + 20'000'000;
    std::thread reloader([&] {
      for (const std::int64_t due : fixed.reload_due) {
        std::this_thread::sleep_until(at(start + due));
        const std::int64_t t0 = now_ns();
        try {
          server.reload();
        } catch (const std::exception&) {
          reloads_ok = false;
        }
        reload_ms.push_back(ms_between(t0, now_ns()));
      }
    });
    replay(fixed, submitted, replied, start);
    reloader.join();
    tracer.end(replay_span);
    for (std::size_t i = 0; i < fixed.lines.size(); ++i) {
      tracer.add("core.advisor_server.request", submitted[i], replied[i],
                 replay_span, fixed.id_base + i);
      late.push_back(ms_between(start + fixed.due[i], submitted[i]));
      engine_us.push_back(static_cast<double>(replied[i] - submitted[i]) / 1e3);
    }
    n += fixed.lines.size();
  }
  const auto counters_after = counter_state();
  const core::ServeCounters after = server.counters_snapshot();
  report.gate("engine.reloads", reloads_ok);
  if (reload_ms.empty()) {
    for (int i = 0; i < kIdleReloadsPerRound * kRounds; ++i) {
      const ScopedSpan span(tracer, "core.advisor_server.reload");
      const std::int64_t t0 = now_ns();
      server.reload();
      reload_ms.push_back(ms_between(t0, now_ns()));
    }
  }
  std::sort(engine_us.begin(), engine_us.end());
  const CounterDelta batch = counter_delta(counters_before, counters_after, "serve.batch");
  const CounterDelta tune =
      counter_delta(counters_before, counters_after, "advisor.batch_tune");
  const CounterDelta predict =
      counter_delta(counters_before, counters_after, "infer.predict_batch");
  const CounterDelta encode = counter_delta(counters_before, counters_after, "infer.encode");
  const double served = static_cast<double>(after.served - before.served);
  const double hits = static_cast<double>(after.memo_hits - before.memo_hits);

  report.metric("core.advisor_server.engine_p50_us", percentile_sorted(engine_us, 50.0), "us");
  report.metric("core.advisor_server.engine_p99_us", percentile_sorted(engine_us, 99.0), "us");
  report.metric("core.advisor_server.batches",
                static_cast<double>(after.batches - before.batches), "count");
  report.metric("core.advisor_server.batch_size_mean",
                batch.calls > 0 ? static_cast<double>(batch.tasks) /
                                      static_cast<double>(batch.calls)
                                : 0.0,
                "count");
  report.metric("core.advisor_server.memo_hit_ratio", served > 0 ? hits / served : 0.0,
                "ratio");
  report.metric("core.advisor_server.shed_busy",
                static_cast<double>(after.shed_busy - before.shed_busy), "count");
  report.metric("core.advisor_server.shed_deadline",
                static_cast<double>(after.shed_deadline - before.shed_deadline), "count");
  report.metric("core.advisor_server.batch_ms", batch.wall_ms, "ms");
  report.metric("core.advisor_server.reload_ms", median(reload_ms), "ms");
  report.metric("core.mart.tune_ms", tune.wall_ms, "ms");
  report.metric("core.mart.jobs", static_cast<double>(tune.tasks), "count");
  report.metric("core.mart.tune_us_per_job",
                tune.tasks > 0 ? tune.wall_ms * 1e3 / static_cast<double>(tune.tasks) : 0.0,
                "us");
  report.metric("core.mart.tune_share_of_batch",
                batch.wall_ms > 0 ? tune.wall_ms / batch.wall_ms : 0.0, "ratio");
  report.metric("core.regression.predict_ms", predict.wall_ms, "ms");
  report.metric("core.regression.predict_share_of_batch",
                batch.wall_ms > 0 ? predict.wall_ms / batch.wall_ms : 0.0, "ratio");
  report.metric("core.regression.encode_ms",
                report.value("core.regression.encode_ms") + encode.wall_ms, "ms");
  report.metric("bench.gen_late_ms", percentile(late, 99.0), "ms");

  // Protocol parse cost per line over the same lines (median of 3 passes).
  std::vector<double> parse_us;
  for (int pass = 0; pass < 3; ++pass) {
    const ScopedSpan span(tracer, "core.serve_protocol.parse");
    const std::int64_t t0 = now_ns();
    std::size_t ok = 0;
    for (const Phase& fixed : traffic.fixed()) {
      for (const std::string& line : fixed.lines) {
        ok += core::serve::parse_request(strip(line)).ok ? 1 : 0;
      }
    }
    parse_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                       static_cast<double>(std::max<std::size_t>(n, 1)));
    report.gate("parse_pass" + std::to_string(pass), ok == n);
  }
  report.metric("core.serve_protocol.parse_us", median(parse_us), "us");

  // Transport round trip: `ping` is answered without touching the engine.
  Daemon daemon;
  std::vector<double> rtt_us;
  const bool started = daemon.start(daemon_argv(ctx, spec, model));
  report.gate("ping.daemon_start", started);
  if (started) {
    const ScopedSpan span(tracer, "util.transport.ping");
    LoadClient client(kSocket, 1, false);
    for (int i = 0; i < kPingProbes; ++i) {
      const std::int64_t t0 = now_ns();
      const std::string reply = client.call("ping p" + std::to_string(i));
      rtt_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (!reply.starts_with("ok ")) report.gate("ping" + std::to_string(i), false);
    }
  }
  report.gate("ping.daemon_stop", daemon.stop());
  report.count_ops(static_cast<std::uint64_t>(kPingProbes), 0);
  report.metric("util.transport.ping_rtt_us", median(rtt_us), "us");
}

}  // namespace perfbench
