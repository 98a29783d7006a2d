// Byte transports for the serve daemon: a buffered line reader/writer over
// a raw file descriptor (works for stdin/stdout and for sockets alike) plus
// AF_UNIX listen/accept/connect helpers. All blocking operations poll with
// a short timeout and honour an optional stop flag, so raising the flag
// unblocks the daemon within one poll interval. Interrupted
// poll/read/write/connect calls (EINTR) are always retried, so a signal
// never surfaces as a spurious I/O error.
//
// Oversize handling: a line longer than kMaxLineBytes is returned truncated
// to kMaxLineBytes + 1 bytes and the remainder up to the next newline is
// discarded, so the protocol layer sees one over-limit "line" (which it
// rejects) and the stream stays synchronized — an attacker feeding an
// endless newline-free stream cannot grow the buffer without bound.
//
// Error handling: write_all throws std::runtime_error on any write failure
// (EPIPE surfaces as an exception instead of SIGPIPE death — the daemon
// ignores SIGPIPE while serving), and read failures other than EOF throw
// likewise.
//
// Timeouts: set_idle_timeout_ms bounds how long read_line waits for the
// next byte (kIdleTimeout result — the daemon reaps idle connections);
// set_write_timeout_ms switches the fd to non-blocking and bounds how long
// write_all waits for the peer to drain its socket buffer (a slow reader
// becomes a thrown error instead of a stalled daemon thread).
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>

namespace smart::util {

/// Hard cap on one protocol line (request or response).
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

class LineChannel {
 public:
  /// Wraps (but does not own) an open file descriptor.
  explicit LineChannel(int fd) noexcept : fd_(fd) {}

  enum class ReadResult {
    kLine,         // `line` holds the next newline-terminated line
    kEof,          // orderly end of stream (no partial data pending)
    kInterrupted,  // the stop flag was raised before a full line arrived
    kIdleTimeout,  // no bytes arrived within the idle timeout
  };

  /// Reads the next '\n'-terminated line (terminator stripped; a trailing
  /// '\r' is also stripped so CRLF clients work). A final unterminated line
  /// at EOF is returned as a line; the following call reports kEof. Lines
  /// beyond kMaxLineBytes are truncated to kMaxLineBytes + 1 bytes (see
  /// header comment). Throws std::runtime_error on read errors.
  ReadResult read_line(std::string& line, const std::atomic<bool>* stop = nullptr);

  /// Writes every byte of `data`. Throws std::runtime_error on failure
  /// (EPIPE is reported as "peer closed the connection mid-reply"; a write
  /// timeout as "peer too slow draining replies").
  void write_all(std::string_view data);

  /// Bounds one read_line call: when no bytes arrive for `ms` milliseconds
  /// the call returns kIdleTimeout instead of blocking forever. 0 disables
  /// (the default).
  void set_idle_timeout_ms(int ms) noexcept { idle_timeout_ms_ = ms; }

  /// Bounds one write_all call: when the peer's socket buffer stays full
  /// for `ms` milliseconds the call throws. Switches the fd to
  /// non-blocking mode (reads keep working — fill() handles EAGAIN).
  /// 0 disables (the default).
  void set_write_timeout_ms(int ms);

 private:
  /// Appends more bytes to buf_. Returns false on EOF/stop/idle-timeout
  /// with `result` set; true when bytes arrived. `waited_ms` accumulates
  /// poll time across fill calls of one read_line.
  bool fill(const std::atomic<bool>* stop, ReadResult& result, int& waited_ms);

  int fd_;
  int idle_timeout_ms_ = 0;
  int write_timeout_ms_ = 0;
  std::string buf_;
  std::size_t pos_ = 0;     // first unconsumed byte of buf_
  bool discarding_ = false; // inside the tail of an oversize line
  std::string oversize_;    // truncated head of the oversize line
};

/// Creates, binds and listens on an AF_UNIX stream socket. Any stale socket
/// file at `path` is removed first (the daemon takes ownership of the
/// path). Throws std::runtime_error on failure (including over-long paths).
int listen_unix(const std::string& path);

/// Accepts one connection, polling so `stop` is honoured. Returns the
/// connection fd, or -1 when the stop flag was raised. Throws on errors.
int accept_unix(int listen_fd, const std::atomic<bool>* stop = nullptr);

/// Connects to an AF_UNIX stream socket, retrying interrupted attempts.
/// Throws std::runtime_error when the connection cannot be established.
int connect_unix(const std::string& path);

}  // namespace smart::util
