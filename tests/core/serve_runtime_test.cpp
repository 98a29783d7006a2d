// The serve runtime (core/serve_runtime), driven in-process over socketpair,
// pipe and AF_UNIX fds and stopped through ServeRuntime::stop():
//
//   - the per-connection in-flight cap sheds with a structured busy reply,
//     and the counter returns to exactly 0 once every reply has arrived;
//   - connection capacity refuses with one busy line, then closes, and the
//     freed slot admits a new connection;
//   - the idle timeout closes one session while another keeps receiving
//     golden bytes;
//   - injected read/write/accept faults end only the faulted session;
//   - a stdio-style session over two pipes answers ping and shutdown;
//   - a peer that closes mid-reply surfaces as the session's write error.
#include "core/serve_runtime.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/mart.hpp"
#include "core/serve_protocol.hpp"
#include "util/fault.hpp"
#include "util/transport.hpp"

namespace smart::core {
namespace {

using util::LineChannel;

const StencilMart& test_mart() {
  static const StencilMart mart = [] {
    MartConfig config;
    config.profile.dims = 2;
    config.profile.num_stencils = 10;
    config.profile.samples_per_oc = 2;
    config.profile.seed = 4242;
    config.tuning_samples = 8;
    StencilMart m(config);
    m.train();
    return m;
  }();
  return mart;
}

/// Twelve distinct 2-D stencils: never memo hits of one another.
std::pair<std::string, stencil::StencilPattern> stencil_spec(int i) {
  const int order = 1 + i % 4;
  switch ((i / 4) % 3) {
    case 0:
      return {"shape=star order=" + std::to_string(order),
              stencil::make_star(2, order)};
    case 1:
      return {"shape=box order=" + std::to_string(order),
              stencil::make_box(2, order)};
    default:
      return {"shape=cross order=" + std::to_string(order),
              stencil::make_cross(2, order)};
  }
}

/// A request id: `prefix` followed by `n`.
std::string request_id(const char* prefix, int n) {
  std::string id(prefix);
  id += std::to_string(n);
  return id;
}

std::string advise_line(const std::string& id, int i) {
  return "advise " + id + " " + stencil_spec(i).first + " gpu=V100\n";
}

/// The reply bytes `advise <id> <stencil i> gpu=V100` must earn: the
/// one-item advise_batch report, escaped onto one line.
std::string golden_reply(const std::string& id, int i) {
  const AdviseBatchItem item{stencil_spec(i).second, "V100"};
  const AdviseBatchResult result = test_mart().advise_batch({&item, 1})[0];
  EXPECT_TRUE(result.ok()) << result.error;
  return serve::ok_reply(id, serve::escape_text(advise_report(
                                 item.pattern, item.gpu, result.advice,
                                 result.rec)));
}

/// Client end of a connection: writes raw bytes, reads reply lines with a
/// bounded wait so a hung runtime fails the test instead of hanging it.
class Client {
 public:
  explicit Client(int fd) : fd_(fd), channel_(fd) {
    channel_.set_idle_timeout_ms(20000);
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& bytes) { channel_.write_all(bytes); }

  std::string read_line() {
    std::string line;
    const auto r = channel_.read_line(line);
    EXPECT_EQ(r, LineChannel::ReadResult::kLine);
    return r == LineChannel::ReadResult::kLine ? line : "<no line>";
  }

  /// True when the server side closed the connection.
  bool at_eof() {
    std::string line;
    return channel_.read_line(line) == LineChannel::ReadResult::kEof;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
  LineChannel channel_;
};

/// One run_session call on a thread of its own over one end of a
/// socketpair; the test talks to the other end. join() returns the
/// session's exception (null when it returned normally).
class SocketSession {
 public:
  SocketSession(ServeRuntime& runtime, std::uint64_t conn_id)
      : fds_(socket_pair()), client_(fds_.second) {
    thread_ = std::thread([this, &runtime, conn_id] {
      try {
        runtime.run_session(fds_.first, fds_.first, conn_id);
      } catch (...) {
        error_ = std::current_exception();
      }
      ::close(fds_.first);
    });
  }
  ~SocketSession() {
    if (!thread_.joinable()) return;
    client_.close();  // EOF ends the session even if the test bailed early
    thread_.join();
  }

  Client& client() { return client_; }

  std::exception_ptr join() {
    thread_.join();
    return error_;
  }

 private:
  static std::pair<int, int> socket_pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return {fds[0], fds[1]};
  }

  std::pair<int, int> fds_;
  Client client_;
  std::exception_ptr error_;
  std::thread thread_;
};

std::string what(const std::exception_ptr& error) {
  try {
    if (error) std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

/// An AF_UNIX listener with the runtime's accept loop on a thread. Signals
/// are set up as in the daemon: a client writing to a refused or dropped
/// connection must get EPIPE, not SIGPIPE.
class Listener {
 public:
  explicit Listener(ServeRuntime& runtime)
      : runtime_(runtime),
        path_(testing::TempDir() + "smart_rt_" + std::to_string(::getpid()) +
              ".sock"),
        fd_(util::listen_unix(path_)),
        thread_([this] { runtime_.accept_loop(fd_); }) {}
  ~Listener() {
    runtime_.stop();
    thread_.join();
    ::close(fd_);
    ::unlink(path_.c_str());
  }

  std::unique_ptr<Client> connect() {
    return std::make_unique<Client>(util::connect_unix(path_));
  }

 private:
  const ServeSignalScope signals_;
  ServeRuntime& runtime_;
  std::string path_;
  int fd_;
  std::thread thread_;
};

TEST(ServeRuntime, InflightCapShedsAndCounterReturnsToZero) {
  // Batches flush only at 3 pending requests (the wait is a minute), so
  // what is pending at each step is exact.
  ServeConfig config;
  config.max_batch = 3;
  config.max_wait_us = 60'000'000;
  AdvisorServer server(test_mart(), config);
  ServeLimits limits;
  limits.max_inflight = 2;
  ServeRuntime runtime(server, limits);
  SocketSession a(runtime, 1);
  SocketSession b(runtime, 2);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int base = 3 * round;
    const std::string ids[3] = {request_id("a", base),
                                request_id("a", base + 1),
                                request_id("a", base + 2)};
    // Two requests pend; the third finds the session at its cap. In round
    // 1 this proves the counter came back to exactly 0: two are admitted
    // again, the third is shed again.
    a.client().send(advise_line(ids[0], base) + advise_line(ids[1], base + 1) +
                    advise_line(ids[2], base + 2));
    EXPECT_EQ(a.client().read_line(),
              "err " + ids[2] + " busy (connection in-flight cap)");
    // A third request from the other session fills the batch.
    const std::string bid = request_id("b", round);
    b.client().send(advise_line(bid, 6 + round));
    EXPECT_EQ(a.client().read_line(), golden_reply(ids[0], base));
    EXPECT_EQ(a.client().read_line(), golden_reply(ids[1], base + 1));
    EXPECT_EQ(b.client().read_line(), golden_reply(bid, 6 + round));
  }
  runtime.stop();
  EXPECT_EQ(a.join(), nullptr);
  EXPECT_EQ(b.join(), nullptr);
}

TEST(ServeRuntime, ConnectionCapacityRefusesThenCloses) {
  AdvisorServer server(test_mart(), {});
  ServeLimits limits;
  limits.max_conns = 1;
  ServeRuntime runtime(server, limits);
  Listener listener(runtime);

  auto first = listener.connect();
  first->send("ping c1\n");
  EXPECT_EQ(first->read_line(), "ok c1 pong v1");  // the session is live

  auto second = listener.connect();
  EXPECT_EQ(second->read_line(), "err - busy (connection capacity)");
  EXPECT_TRUE(second->at_eof());

  // Once the first session ends, its slot admits a new connection.
  first.reset();
  bool admitted = false;
  for (int attempt = 0; attempt < 200 && !admitted; ++attempt) {
    auto next = listener.connect();
    try {
      next->send("ping c2\n");
    } catch (const std::runtime_error&) {
      // refused and closed before the ping went out
    }
    admitted = next->read_line() == "ok c2 pong v1";
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted);
}

TEST(ServeRuntime, IdleTimeoutClosesOneSessionOnly) {
  AdvisorServer server(test_mart(), {});
  ServeLimits limits;
  limits.idle_timeout_ms = 300;
  ServeRuntime runtime(server, limits);
  Listener listener(runtime);

  auto idle = listener.connect();
  auto busy = listener.connect();
  // The busy client pauses far less than 300 ms between requests, for
  // longer than the idle timeout in total, and outlives the idle one.
  for (int i = 0; i < 8; ++i) {
    const std::string id = request_id("k", i);
    busy->send(advise_line(id, i));
    EXPECT_EQ(busy->read_line(), golden_reply(id, i));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(idle->at_eof());
  busy->send(advise_line("k8", 8));
  EXPECT_EQ(busy->read_line(), golden_reply("k8", 8));
}

/// The first seed under which `fits` holds for the injector built from
/// `rules` (fault decisions are pure hashes, so the choice is stable).
std::string seeded_spec(const std::string& rules,
                        bool (*fits)(const util::FaultInjector&)) {
  for (int seed = 1; seed < 10000; ++seed) {
    const std::string spec = "seed=" + std::to_string(seed) + ";" + rules;
    if (fits(util::FaultInjector(util::parse_fault_spec(spec)))) return spec;
  }
  ADD_FAILURE() << "no seed fits " << rules;
  return rules;
}

bool faulty(const util::FaultInjector& f, util::FaultSite site,
            std::uint64_t conn) {
  return f.check(site, conn, 0) != nullptr;
}

TEST(ServeRuntime, InjectedReadWriteFaultsStaySessionLocal) {
  // Connection 1 faults on its first read, connection 3 on its first
  // write; connection 2 is healthy at both sites.
  const util::ScopedFaultInjection faults(seeded_spec(
      "read:p=0.5;write:p=0.5", [](const util::FaultInjector& f) {
        return faulty(f, util::FaultSite::kRead, 1) &&
               !faulty(f, util::FaultSite::kRead, 2) &&
               !faulty(f, util::FaultSite::kWrite, 2) &&
               !faulty(f, util::FaultSite::kRead, 3) &&
               faulty(f, util::FaultSite::kWrite, 3);
      }));
  AdvisorServer server(test_mart(), {});
  ServeRuntime runtime(server, {});
  SocketSession read_faulted(runtime, 1);
  SocketSession healthy(runtime, 2);
  SocketSession write_faulted(runtime, 3);

  read_faulted.client().send(advise_line("r1", 0));
  write_faulted.client().send(advise_line("w1", 1));
  EXPECT_NE(what(read_faulted.join()).find("injected read fault"),
            std::string::npos);
  EXPECT_NE(what(write_faulted.join()).find("injected write fault"),
            std::string::npos);
  // A severed peer gets no reply, only the close.
  EXPECT_TRUE(read_faulted.client().at_eof());
  EXPECT_TRUE(write_faulted.client().at_eof());

  for (int i = 0; i < 4; ++i) {
    const std::string id = request_id("h", i);
    healthy.client().send(advise_line(id, i));
    EXPECT_EQ(healthy.client().read_line(), golden_reply(id, i));
  }
  runtime.stop();
  EXPECT_EQ(healthy.join(), nullptr);
}

TEST(ServeRuntime, InjectedAcceptFaultDropsOnlyThatConnection) {
  const util::ScopedFaultInjection faults(
      seeded_spec("accept:p=0.5", [](const util::FaultInjector& f) {
        return faulty(f, util::FaultSite::kAccept, 1) &&
               !faulty(f, util::FaultSite::kAccept, 2);
      }));
  AdvisorServer server(test_mart(), {});
  ServeRuntime runtime(server, {});
  Listener listener(runtime);

  auto dropped = listener.connect();
  EXPECT_TRUE(dropped->at_eof());
  auto served = listener.connect();
  served->send(advise_line("x1", 2));
  EXPECT_EQ(served->read_line(), golden_reply("x1", 2));
}

TEST(ServeRuntime, StdioStyleSessionAnswersPingAndShutdown) {
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  const std::string request = "ping s1\nshutdown s2\n";
  ASSERT_EQ(::write(in[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::close(in[1]);

  AdvisorServer server(test_mart(), {});
  ServeRuntime runtime(server, {});
  runtime.run_session(in[0], out[1], 0);
  EXPECT_TRUE(runtime.stopped());  // the shutdown verb stops the runtime
  ::close(in[0]);
  ::close(out[1]);

  Client reader(out[0]);
  EXPECT_EQ(reader.read_line(), "ok s1 pong v1");
  EXPECT_EQ(reader.read_line(), "ok s2 bye");
  EXPECT_TRUE(reader.at_eof());
}

TEST(ServeRuntime, PeerClosedMidReplyIsTheSessionsError) {
  const ServeSignalScope signals;  // SIGPIPE ignored, as in the daemon
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string request = "ping p1\n";
  ASSERT_EQ(::write(fds[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::close(fds[1]);  // gone before the reply is written

  AdvisorServer server(test_mart(), {});
  ServeRuntime runtime(server, {});
  try {
    runtime.run_session(fds[0], fds[0], 0);
    ADD_FAILURE() << "the session swallowed the write error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("peer closed the connection"),
              std::string::npos)
        << e.what();
  }
  ::close(fds[0]);
  EXPECT_FALSE(runtime.stopped());  // one peer's error stops nothing else
}

}  // namespace
}  // namespace smart::core
