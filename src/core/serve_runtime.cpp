#include "core/serve_runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>

#include <pthread.h>
#include <unistd.h>

#include "util/fault.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"
#include "util/transport.hpp"

namespace smart::core {

namespace {

/// The signals the poller owns while the daemon runs.
sigset_t daemon_signals() {
  sigset_t set;
  sigemptyset(&set);
  for (const int sig : {SIGHUP, SIGTERM, SIGINT}) sigaddset(&set, sig);
  return set;
}

/// One session's fds: a line reader plus a thread-safe reply writer.
/// Batched replies are written from the batcher thread, where a write
/// failure (the peer vanished mid-reply) cannot throw: it is kept for
/// rethrow_write_error on the session thread, and later replies to the
/// dead peer are dropped quietly.
struct ServeConnection {
  ServeConnection(int read_fd, int write_fd)
      : reader(read_fd), writer(write_fd) {}

  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lk(mu);
    if (dead) return;
    try {
      writer.write_all(line + '\n');
    } catch (...) {
      dead = true;
      error = std::current_exception();
    }
  }

  void rethrow_write_error() {
    const std::lock_guard<std::mutex> lk(mu);
    if (error) std::rethrow_exception(error);
  }

  util::LineChannel reader;
  util::LineChannel writer;
  std::mutex mu;
  bool dead = false;  // set by a write failure, or to sever the peer
  std::exception_ptr error;
};

/// The accept loop's session threads and the live-session count the
/// capacity check reads; only the accept loop calls it. Finished sessions
/// are joined on the next launch (and at join_all), so the list stays
/// proportional to the live connection count, not the connection total.
class SessionSet {
 public:
  int live() const {
    return static_cast<int>(std::count_if(
        sessions_.begin(), sessions_.end(),
        [](const Session& s) { return !s.done.load(); }));
  }

  void launch(std::function<void()> fn) {
    std::erase_if(sessions_, [](Session& s) {
      const bool done = s.done.load();
      if (done) s.thread.join();
      return done;
    });
    Session& session = sessions_.emplace_back();
    session.thread = std::thread([&session, fn = std::move(fn)] {
      fn();
      session.done.store(true);
    });
  }

  void join_all() {
    for (Session& s : sessions_) {
      if (s.thread.joinable()) s.thread.join();  // not if std::thread threw
    }
    sessions_.clear();
  }

 private:
  struct Session {
    std::thread thread;
    std::atomic<bool> done{false};  // fn returned
  };
  std::list<Session> sessions_;  // stable nodes: each thread marks its own
};

}  // namespace

ServeSignalScope::ServeSignalScope() {
  const sigset_t set = daemon_signals();
  pthread_sigmask(SIG_BLOCK, &set, &old_mask_);
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  sigaction(SIGPIPE, &ignore, &old_pipe_);
}

ServeSignalScope::~ServeSignalScope() {
  const sigset_t set = daemon_signals();
  const timespec now{0, 0};
  while (sigtimedwait(&set, nullptr, &now) > 0) continue;
  sigaction(SIGPIPE, &old_pipe_, nullptr);
  pthread_sigmask(SIG_SETMASK, &old_mask_, nullptr);
}

ServeRuntime::ServeRuntime(AdvisorServer& server, ServeLimits limits)
    : server_(server), limits_(limits) {}

ServeRuntime::~ServeRuntime() {
  stop();
  if (poller_.joinable()) poller_.join();
}

void ServeRuntime::run_session(int read_fd, int write_fd,
                               std::uint64_t conn_id) {
  ServeConnection conn(read_fd, write_fd);
  conn.reader.set_idle_timeout_ms(limits_.idle_timeout_ms);
  conn.writer.set_write_timeout_ms(limits_.write_timeout_ms);
  // In-flight = submitted minus replied on THIS session; the sink
  // decrements as each reply (batched, memoized, control or shed) is
  // delivered, before the bytes go out, so a client that has read every
  // reply always finds the count at 0. Every exit drains the server first,
  // so no queued sink outlives `conn` or `inflight`.
  std::atomic<int> inflight{0};
  const AdvisorServer::Sink sink = [&conn, &inflight](const std::string& line) {
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    conn.write(line);
  };
  const auto& faults = util::FaultInjector::global();
  std::string line;
  int lines = 0;  // the fault sites' attempt index
  try {
    for (;;) {
      const auto r = conn.reader.read_line(line, &stop_);
      if (r == util::LineChannel::ReadResult::kIdleTimeout) {
        std::fprintf(stderr, "serve: connection %llu: idle timeout, closing\n",
                     static_cast<unsigned long long>(conn_id));
      }
      if (r != util::LineChannel::ReadResult::kLine) break;
      faults.inject(util::FaultSite::kRead, conn_id, lines);
      faults.inject(util::FaultSite::kWrite, conn_id, lines++);
      if (!serve::is_blank(line)) {
        if (inflight.load(std::memory_order_acquire) >= limits_.max_inflight) {
          // Per-connection cap: shed at the edge with a structured reply
          // instead of letting one pipelining client monopolize the queue.
          conn.write(serve::err_reply(serve::request_id(line),
                                      "busy (connection in-flight cap)"));
          conn.rethrow_write_error();
          continue;
        }
        inflight.fetch_add(1, std::memory_order_acq_rel);
      }
      const bool keep = server_.submit(line, sink);
      conn.rethrow_write_error();
      if (!keep) {
        // A shutdown verb was accepted (this session's or another's): stop
        // the whole daemon.
        stop();
        break;
      }
    }
  } catch (const util::FaultError&) {
    // Injected read/write fault: a severed peer gets no further replies.
    {
      const std::lock_guard<std::mutex> lk(conn.mu);
      conn.dead = true;
    }
    server_.drain();
    throw;
  } catch (...) {
    server_.drain();
    throw;
  }
  // EOF, idle timeout, stop or shutdown: answer everything this session
  // already submitted (graceful drain), then hang up.
  server_.drain();
  conn.rethrow_write_error();
}

void ServeRuntime::accept_loop(int listen_fd) {
  SessionSet sessions;
  std::uint64_t conn_counter = 0;
  try {
    for (;;) {
      const int fd = util::accept_unix(listen_fd, &stop_);
      if (fd < 0) break;  // stopped
      const std::uint64_t conn_id = ++conn_counter;
      try {
        util::FaultInjector::global().inject(util::FaultSite::kAccept, conn_id);
      } catch (const util::FaultError&) {
        ::close(fd);  // injected accept fault: drop the fresh connection
        continue;
      }
      if (sessions.live() >= limits_.max_conns) {
        // Connection-capacity shed: one structured line, then hang up —
        // the client knows it was refused, not ignored.
        util::LineChannel refuse(fd);
        try {
          refuse.write_all(
              serve::err_reply("-", "busy (connection capacity)") + '\n');
        } catch (const std::exception&) {
        }
        ::close(fd);
        continue;
      }
      sessions.launch([this, fd, conn_id] {
        try {
          run_session(fd, fd, conn_id);
        } catch (const std::exception& e) {
          // A broken peer ends only its own session.
          std::fprintf(stderr, "serve: connection %llu: %s\n",
                       static_cast<unsigned long long>(conn_id), e.what());
        }
        ::close(fd);
      });
    }
  } catch (...) {
    stop();
    sessions.join_all();
    throw;
  }
  sessions.join_all();
  server_.drain();
}

void ServeRuntime::watch_signals() {
  // sigtimedwait doubles as the poll sleep: reload latency is bounded by
  // the tick, not by async-handler delivery (sanitizer runtimes defer async
  // handlers until the interrupted thread reaches a safe point). Reload
  // notices go to stderr; a failed reload keeps the old model serving.
  poller_ = std::thread([this] {
    const sigset_t set = daemon_signals();
    const timespec tick{0, 20 * 1000 * 1000};
    while (!stopped()) {
      const int sig = sigtimedwait(&set, nullptr, &tick);
      if (sig == SIGTERM || sig == SIGINT) {
        stop();
      } else if (sig == SIGHUP) {
        try {
          const std::uint64_t epoch = server_.reload();
          const auto snapshot = server_.model_snapshot();
          std::fprintf(stderr,
                       "serve: reloaded epoch=%llu version=%s checksum=%s\n",
                       static_cast<unsigned long long>(epoch),
                       snapshot.version.c_str(), snapshot.checksum.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve: reload failed: %s\n", e.what());
        }
      }
    }
  });
}

int run_daemon(const ServeOptions& options, const ModelProvider& provider,
               std::ostream& out) {
  // Before the first daemon thread (the batcher, the task pool, sessions),
  // so every thread inherits the mask.
  const ServeSignalScope signals;
  AdvisorServer server(provider(), options.config, provider);
  ServeRuntime runtime(server, options.limits);

  const auto snapshot = server.model_snapshot();
  const std::string banner =
      "serve: model " + options.model_path + " version=" + snapshot.version +
      " checksum=" + snapshot.checksum +
      " epoch=" + std::to_string(server.epoch());
  runtime.watch_signals();
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "%s\n", banner.c_str());  // stdout is the protocol
    runtime.run_session(STDIN_FILENO, STDOUT_FILENO, 0);
  } else {
    out << banner << std::endl;
    const int listen_fd = util::listen_unix(options.socket_path);
    const std::shared_ptr<void> release(nullptr, [&](void*) {  // scope guard
      ::close(listen_fd);
      ::unlink(options.socket_path.c_str());
    });
    out << "serve: listening on " << options.socket_path << " (max-conns "
        << options.limits.max_conns << ", max-queue "
        << options.config.max_queue << ")" << std::endl;
    runtime.accept_loop(listen_fd);
  }

  if (options.timing) {
    const auto counters = server.counters_snapshot();
    out << "serve: served=" << counters.served
        << " errors=" << counters.errors
        << " memo_hits=" << counters.memo_hits
        << " batches=" << counters.batches
        << " shed_busy=" << counters.shed_busy
        << " shed_deadline=" << counters.shed_deadline
        << " p50_us=" << counters.p50_us
        << " p99_us=" << counters.p99_us
        << " qps=" << util::format_double(counters.qps, 1)
        << " epoch=" << counters.epoch << '\n'
        << util::timing_report();
  }
  return 0;
}

}  // namespace smart::core
