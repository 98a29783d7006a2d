// Shared pieces of the repository benchmark: clocks, the benchmark-owned
// PRNG and input generators, percentile and Zipf helpers, the fixed rate
// ladder, failure accounting, span tracing, child-process control and the
// result report. Everything here is the benchmark's own code; the program
// under test is only reached through its CLI, its socket protocol and the
// public functions the traced run calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "stencil/pattern.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// ---------------------------------------------------------------- inputs

/// splitmix64: the benchmark's own generator, so workload inputs depend on
/// the seed alone and never on the library's RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a label.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view label);

/// A deterministic stream of distinct random stencils of `dims`
/// dimensions, grown order by order like the paper's Algorithm 1 (every
/// order-k point is a Moore neighbour of an order-(k-1) point), with the
/// order drawn uniformly from 2..4 (order 1 has too few distinct 2-D
/// patterns for a never-seen stream).
class StencilStream {
 public:
  StencilStream(std::uint64_t seed, int dims) : rng_(seed), dims_(dims) {}
  smart::stencil::StencilPattern next();

 private:
  SplitMix rng_;
  int dims_;
  std::unordered_set<std::string> seen_;
};

/// The `offsets=` spelling of a stencil on the serve protocol.
std::string offsets_text(const smart::stencil::StencilPattern& pattern);

inline constexpr const char* kGpus[] = {"V100", "A100", "P100", "2080Ti"};

/// One advise/predict query of a serve workload.
struct Query {
  bool advise = true;  // false: predict
  int pattern = 0;     // index into the workload's stencil pool
  std::string gpu;
};

std::string request_line(const Query& query, std::string_view id,
                         const std::vector<std::string>& offsets);

// ------------------------------------------------------------- statistics

double median(std::vector<double> values);

/// Nearest-rank percentile of an ascending vector (q in [0, 100]).
double percentile_sorted(const std::vector<double>& sorted, double q);

/// The samples behind a metric, space-separated, for the notes.
std::string samples_text(const std::vector<double>& values);

/// A latency summary: the median, and the highest percentile of
/// {50, 90, 99, 99.9, 99.99} that still has at least ten samples above it,
/// with the sample count it rests on.
struct Tail {
  std::size_t samples = 0;
  double p50 = 0.0;
  double top_q = 0.0;
  double top = 0.0;
};
Tail tail_summary(std::vector<double> values);

/// Zipf(s) over ranks 0..n-1 by inverse CDF (deterministic given the PRNG).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(SplitMix& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The fixed geometric rate ladder for slo_qps (requests/s): 1000 * 1.05^k
/// rounded, up to 200000. Identical on every commit; a self-check pins it.
std::vector<int> rate_ladder();

// ---------------------------------------------------- failure accounting

/// Outcome counts of one phase. `ok` counts ok replies (or successful CLI
/// runs); a mismatched reply is also counted in `mismatched` and is a
/// failure. err and shed replies count as missing the latency limit.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t busy = 0;
  std::uint64_t deadline = 0;
  std::uint64_t missing = 0;
  std::uint64_t mismatched = 0;

  std::uint64_t failed() const {
    return err + busy + deadline + missing + mismatched;
  }
  /// Classifies one reply line ("ok ..." / "err <id> busy ..." / ...).
  void count_reply(std::string_view line);
  std::string json() const;
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run: one span per call into a
/// layer, kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  /// Opens a span under the innermost open span; returns its index.
  int begin(std::string name, std::uint64_t request = 0);
  void end(int index);
  /// Records a finished span (e.g. one engine request) under `parent`.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           int parent, std::uint64_t request);
  /// Duration minus the part of the interval its children cover.
  double self_ms(int index) const;
  /// Writes one JSON object per span (with its self time) to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII helper around Tracer::begin/end.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), index_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Wall time and task count of a PhaseTimer counter over one call, read
/// from util::timing_snapshot() before and after.
struct CounterDelta {
  double wall_ms = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t tasks = 0;
};
std::map<std::string, CounterDelta> counter_state();
CounterDelta counter_delta(const std::map<std::string, CounterDelta>& before,
                           const std::map<std::string, CounterDelta>& after,
                           const std::string& name);

// -------------------------------------------------------------- processes

/// Result of one child run: exit status, wall time from spawn to exit,
/// peak resident set (ru_maxrss) and captured stdout.
struct ProcResult {
  bool ok = false;  // exited normally with code 0
  int code = -1;
  double wall_ms = 0.0;
  double peak_rss_mb = 0.0;
  std::string out;
};

/// Runs argv to completion, capturing stdout (stderr is inherited). Kills
/// the child if it runs longer than `timeout_s`.
ProcResult run_process(const std::vector<std::string>& argv,
                       double timeout_s = 120.0);

/// Peak resident set (VmHWM) of a running process, in MB.
double peak_rss_mb(pid_t pid);

/// A `smartctl serve --socket` daemon owned by the benchmark. The
/// destructor kills and reaps a daemon that was not stopped.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns the daemon and blocks until its "listening" banner appears.
  /// Returns false (daemon reaped) if it exits or stays silent.
  bool start(const std::vector<std::string>& argv, double timeout_s = 60.0);
  /// Peak resident set of the running daemon (VmHWM), in MB.
  double peak_rss_mb() const;
  /// On-CPU time of all the daemon's threads so far (schedstat), in ms.
  double cpu_ms() const;
  /// SIGTERM + reap (the daemon drains first). Returns true on exit code 0.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

// ------------------------------------------------------------ provenance

struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 0;
  unsigned hw_threads = 0;
  std::string isa;
  std::string build_type;
  std::string git;
  std::string daemon_flags;
  std::string json() const;
};

// ----------------------------------------------------------------- report

/// Metrics, per-phase tallies and notes of one run. The final line printed
/// is the machine-readable JSON result; everything before it is for people.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A measured figure printed in the row but not in the final JSON: too
  /// noisy on a shared host to carry a regression bound.
  void detail(const std::string& name, double value, const std::string& unit);
  void phase(const std::string& name, const Tally& tally);
  /// Failures outside any serve phase: CLI runs and correctness gates.
  void gate(const std::string& name, bool passed);
  void note(const std::string& line);
  /// Operations and failures that enter the top-level attempted/failed.
  void count_ops(std::uint64_t attempted, std::uint64_t failed);

  bool has(const std::string& name) const;
  double value(const std::string& name) const;

  /// Prints the notes, the provenance row and the final JSON line.
  void print(const Provenance& provenance, bool complete) const;

 private:
  using Entries = std::vector<std::pair<std::string, std::pair<double, std::string>>>;
  static std::string entries_json(const Entries& entries);

  Entries metrics_;
  Entries details_;
  std::vector<std::pair<std::string, Tally>> phases_;
  std::vector<std::pair<std::string, bool>> gates_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shortest round-trip decimal spelling of a double (all its digits).
std::string number_text(double value);
std::string json_string(std::string_view text);

/// Reads a whole file; empty string if missing.
std::string read_file(const std::string& path);

}  // namespace perfbench
