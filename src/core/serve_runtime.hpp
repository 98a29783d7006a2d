// The `smartctl serve` runtime in front of one AdvisorServer: one session
// loop for stdio (session 0 over fds 0/1) and for every accepted AF_UNIX
// connection, the accept loop, and one stop path — a stop flag raised by
// stop(), an accepted `shutdown` verb, or SIGTERM/SIGINT reaped by the
// signal poller. DESIGN.md §15 has the full contract.
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <thread>

#include "core/advisor_server.hpp"

namespace smart::core {

/// Connection limits of the session runtime.
struct ServeLimits {
  int max_conns = 16;        // live sessions the accept loop admits
  int max_inflight = 1024;   // unanswered requests per session
  int idle_timeout_ms = 0;   // 0 = never reap idle sessions
  int write_timeout_ms = 0;  // 0 = block forever on a slow reader
};

/// While alive, SIGHUP, SIGTERM and SIGINT are blocked for the calling
/// thread and every thread it starts afterwards, so only the signal poller
/// receives them, and SIGPIPE is ignored (blocked, it would stay pending).
/// The destructor discards those three if pending (a second SIGTERM during
/// the drain must not kill the process), then restores mask and SIGPIPE.
class ServeSignalScope {
 public:
  ServeSignalScope();
  ~ServeSignalScope();
  ServeSignalScope(const ServeSignalScope&) = delete;
  ServeSignalScope& operator=(const ServeSignalScope&) = delete;

 private:
  sigset_t old_mask_{};
  struct sigaction old_pipe_ {};
};

class ServeRuntime {
 public:
  ServeRuntime(AdvisorServer& server, ServeLimits limits);
  /// Stops and joins the signal poller, if watch_signals started one.
  ~ServeRuntime();
  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  /// The session loop: request lines from `read_fd`, replies to `write_fd`,
  /// until EOF, the idle timeout, stop() or an accepted `shutdown` verb
  /// (which also stops the runtime). Every request already submitted is
  /// answered before it returns. A peer I/O error (read or write failure,
  /// write timeout, injected read/write fault) ends the session and is
  /// thrown to the caller after the drain. Closes neither fd.
  void run_session(int read_fd, int write_fd, std::uint64_t conn_id);

  /// Runs each connection accepted on `listen_fd` as a session (ids 1, 2,
  /// ...) on its own thread until stop(), logging session errors; past
  /// `max_conns` live sessions, or on an injected accept fault, it closes
  /// the connection (after `err - busy (connection capacity)` for the
  /// former). Joins every session and drains before it returns.
  void accept_loop(int listen_fd);

  /// Starts the poller that reaps the signals a ServeSignalScope blocked:
  /// SIGHUP hot-reloads the model, SIGTERM/SIGINT stop the runtime.
  void watch_signals();

  void stop() noexcept { stop_.store(true, std::memory_order_release); }
  bool stopped() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  AdvisorServer& server_;
  ServeLimits limits_;
  std::atomic<bool> stop_{false};
  std::thread poller_;
};

/// Everything `smartctl serve` validated from its flags.
struct ServeOptions {
  std::string model_path;   // named in the banner; the provider reads it
  std::string socket_path;  // "" = one stdio session over fds 0/1
  ServeConfig config;
  ServeLimits limits;
  bool timing = false;      // print the counters and phase timers on exit
};

/// The daemon: opens a ServeSignalScope, loads the model through
/// `provider`, prints the banner (stderr for stdio, whose stdout is the
/// protocol stream; `out` for a socket), then serves until stop. Returns 0;
/// a stdio peer I/O error is thrown (the rc-1 exit).
int run_daemon(const ServeOptions& options, const ModelProvider& provider,
               std::ostream& out);

}  // namespace smart::core
