// Open-loop load generator for `smartctl serve --socket`: the calling
// thread sends every request at its due time (requests due together go out
// in one write per connection) and one receiver thread reads the replies of
// every connection. Latency is timed on the client, at ns resolution, from
// each request's due time to its reply.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Latency limit of the slo_qps ladder, from due time to reply.
inline constexpr double kSloLimitMs = 10.0;

/// One phase of traffic and what came back.
struct Phase {
  // ---- inputs
  std::vector<Query> queries;
  std::vector<std::string> lines;   // request lines, '\n'-terminated
  std::vector<std::int64_t> due;    // ns after the phase start, ascending
  std::vector<std::int64_t> reload_due;  // control connection: `reload`
  std::vector<std::int64_t> ping_due;    // control connection: `ping`
  std::size_t id_base = 0;          // request i has id "r<id_base + i>"
  /// Ladder probes stop sending once more than half of the planned
  /// requests missed the latency limit: the probe has failed already.
  bool abortable = false;

  // ---- outputs
  std::int64_t start = 0;              // absolute ns of offset 0
  std::size_t sent = 0;                // requests sent (all unless aborted)
  std::vector<std::int64_t> sent_at;   // absolute ns each request was written
  std::vector<std::int64_t> recv;      // absolute ns of the reply; 0 = none
  std::vector<std::string> replies;
  bool aborted = false;
  Tally tally;     // advise/predict requests
  Tally control;   // reload and ping requests
  std::vector<double> reload_ms;  // send -> `ok ... reloaded epoch=N`
  std::vector<double> ping_ms;
};

class LoadClient {
 public:
  /// Opens `connections` request connections plus, when `control`, one
  /// control connection, to the daemon socket at `path`.
  LoadClient(const std::string& path, int connections, bool control);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Runs the phase to completion: every request sent is answered, or
  /// counted missing 5 s after the last due time.
  void run(Phase& phase);

  /// One synchronous request on the control connection (or the first
  /// request connection); returns the reply line ("" if none in 30 s).
  std::string call(const std::string& line);

 private:
  std::vector<int> fds_;  // request connections, then the control one
  int control_ = -1;      // index into fds_
  std::vector<std::string> pending_;  // unparsed bytes per connection
};

}  // namespace perfbench
