#include "serve_client.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <limits>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <unistd.h>

#include "util/transport.hpp"

namespace perfbench {

namespace {

constexpr auto kLimitNs = static_cast<std::int64_t>(kSloLimitMs * 1e6);
constexpr std::int64_t kStartDelayNs = 20'000'000;  // schedule lead-in
constexpr std::int64_t kGraceNs = 5'000'000'000;    // wait for late replies

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("write to the daemon socket failed");
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Splits "ok <id> ..." / "err <id> ..." into the id's prefix letter and
/// number; false for anything else.
bool reply_id(std::string_view line, char& kind, std::uint64_t& number) {
  std::size_t start = 0;
  if (line.starts_with("ok ")) start = 3;
  else if (line.starts_with("err ")) start = 4;
  else return false;
  if (start >= line.size()) return false;
  kind = line[start];
  const char* first = line.data() + start + 1;
  const char* last = line.data() + line.size();
  const auto res = std::from_chars(first, last, number);
  return res.ec == std::errc() && (res.ptr == last || *res.ptr == ' ');
}

}  // namespace

LoadClient::LoadClient(const std::string& path, int connections, bool control) {
  for (int i = 0; i < connections + (control ? 1 : 0); ++i) {
    fds_.push_back(smart::util::connect_unix(path));
  }
  if (control) control_ = connections;
  pending_.resize(fds_.size());
}

LoadClient::~LoadClient() {
  for (const int fd : fds_) ::close(fd);
}

void LoadClient::run(Phase& phase) {
  const std::size_t n = phase.lines.size();
  const std::size_t conns = control_ >= 0 ? fds_.size() - 1 : fds_.size();
  const std::size_t reloads = control_ >= 0 ? phase.reload_due.size() : 0;
  const std::size_t pings = control_ >= 0 ? phase.ping_due.size() : 0;
  phase.sent_at.assign(n, 0);
  phase.recv.assign(n, 0);
  phase.replies.assign(n, std::string());
  std::vector<std::int64_t> reload_sent(reloads, 0), reload_recv(reloads, 0);
  std::vector<std::int64_t> ping_sent(pings, 0), ping_recv(pings, 0);
  std::vector<std::string> control_replies(reloads + pings);
  phase.start = now_ns() + kStartDelayNs;

  std::atomic<std::size_t> sent_count{0};
  std::atomic<std::size_t> control_sent{0};
  std::atomic<bool> sender_done{false};
  std::atomic<bool> abort{false};
  std::atomic<std::int64_t> hard_deadline{std::numeric_limits<std::int64_t>::max()};

  std::thread receiver([&] {
    std::size_t received = 0;
    std::size_t control_received = 0;
    std::size_t slow = 0;
    std::vector<pollfd> pfds;
    for (const int fd : fds_) pfds.push_back(pollfd{fd, POLLIN, 0});
    char buf[1 << 16];
    for (;;) {
      if (sender_done.load(std::memory_order_acquire) &&
          received >= sent_count.load(std::memory_order_acquire) &&
          control_received >= control_sent.load(std::memory_order_acquire)) {
        break;
      }
      if (now_ns() > hard_deadline.load(std::memory_order_acquire)) break;
      if (::poll(pfds.data(), pfds.size(), 5) <= 0) continue;
      for (std::size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t got = ::read(pfds[c].fd, buf, sizeof buf);
        if (got <= 0) continue;
        const std::int64_t t = now_ns();
        std::string& pending = pending_[c];
        pending.append(buf, static_cast<std::size_t>(got));
        std::size_t from = 0;
        for (std::size_t nl; (nl = pending.find('\n', from)) != std::string::npos;
             from = nl + 1) {
          const std::string_view line(pending.data() + from, nl - from);
          char kind = 0;
          std::uint64_t number = 0;
          if (!reply_id(line, kind, number)) continue;
          if (kind == 'r' && number >= phase.id_base &&
              number - phase.id_base < n) {
            const std::size_t i = number - phase.id_base;
            if (phase.recv[i] != 0) continue;
            phase.recv[i] = t;
            phase.replies[i] = std::string(line);
            ++received;
            if (!line.starts_with("ok ") ||
                t - (phase.start + phase.due[i]) > kLimitNs) {
              ++slow;
              if (phase.abortable && slow * 2 > n) {
                abort.store(true, std::memory_order_release);
              }
            }
          } else if ((kind == 'c' && number < reloads) ||
                     (kind == 'p' && number < pings)) {
            auto& at = kind == 'c' ? reload_recv : ping_recv;
            if (at[number] != 0) continue;
            at[number] = t;
            control_replies[kind == 'c' ? number : reloads + number] =
                std::string(line);
            ++control_received;
          }
        }
        pending.erase(0, from);
      }
    }
  });

  std::size_t i = 0, r = 0, p = 0;
  try {
    std::vector<std::string> out(fds_.size());
    const std::int64_t never = std::numeric_limits<std::int64_t>::max();
    while ((i < n || r < reloads || p < pings) &&
           !abort.load(std::memory_order_acquire)) {
      const std::int64_t next =
          phase.start + std::min({i < n ? phase.due[i] : never,
                                  r < reloads ? phase.reload_due[r] : never,
                                  p < pings ? phase.ping_due[p] : never});
      if (next > now_ns()) {
        std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(next)));
      }
      const std::int64_t now = now_ns();
      for (std::string& o : out) o.clear();
      while (i < n && phase.start + phase.due[i] <= now) {
        out[i % conns] += phase.lines[i];
        phase.sent_at[i] = now;
        ++i;
      }
      while (r < reloads && phase.start + phase.reload_due[r] <= now) {
        out[static_cast<std::size_t>(control_)] += "reload c" + std::to_string(r) + '\n';
        reload_sent[r++] = now;
      }
      while (p < pings && phase.start + phase.ping_due[p] <= now) {
        out[static_cast<std::size_t>(control_)] += "ping p" + std::to_string(p) + '\n';
        ping_sent[p++] = now;
      }
      sent_count.store(i, std::memory_order_release);
      control_sent.store(r + p, std::memory_order_release);
      for (std::size_t c = 0; c < fds_.size(); ++c) {
        if (!out[c].empty()) write_all(fds_[c], out[c]);
      }
    }
  } catch (...) {
    abort.store(true);
    hard_deadline.store(now_ns());
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    throw;
  }
  const std::int64_t last_due = phase.start + (n > 0 ? phase.due[n - 1] : 0);
  hard_deadline.store(std::max(now_ns(), last_due) + kGraceNs,
                      std::memory_order_release);
  sender_done.store(true, std::memory_order_release);
  receiver.join();

  phase.aborted = i < n;
  phase.sent = i;
  phase.tally.attempted += i;
  for (std::size_t k = 0; k < i; ++k) {
    if (phase.recv[k] == 0) ++phase.tally.missing;
    else phase.tally.count_reply(phase.replies[k]);
  }
  phase.control.attempted += r + p;
  for (std::size_t k = 0; k < r + p; ++k) {
    const bool reload = k < r;
    const std::size_t j = reload ? k : k - r;
    const std::int64_t got = reload ? reload_recv[j] : ping_recv[j];
    const std::string& line = control_replies[reload ? j : reloads + j];
    if (got == 0) {
      ++phase.control.missing;
      continue;
    }
    phase.control.count_reply(line);
    if (reload && line.find(" reloaded epoch=") == std::string::npos) {
      ++phase.control.mismatched;
    }
    (reload ? phase.reload_ms : phase.ping_ms)
        .push_back(ms_between(reload ? reload_sent[j] : ping_sent[j], got));
  }
}

std::string LoadClient::call(const std::string& line) {
  const std::size_t c = control_ >= 0 ? static_cast<std::size_t>(control_) : 0;
  write_all(fds_[c], line + '\n');
  const std::string id = line.substr(line.find(' ') + 1);
  const std::int64_t deadline = now_ns() + 30'000'000'000;
  std::string& pending = pending_[c];
  char buf[1 << 16];
  for (;;) {
    std::size_t from = 0;
    for (std::size_t nl; (nl = pending.find('\n', from)) != std::string::npos;
         from = nl + 1) {
      const std::string_view reply(pending.data() + from, nl - from);
      const std::size_t skip = reply.starts_with("ok ") ? 3 : 4;
      if (reply.size() >= skip + id.size() &&
          reply.substr(skip, id.size()) == id &&
          (reply.size() == skip + id.size() || reply[skip + id.size()] == ' ')) {
        std::string out(reply);
        pending.erase(0, nl + 1);
        return out;
      }
    }
    pending.erase(0, from);
    pollfd pfd{fds_[c], POLLIN, 0};
    const std::int64_t left = deadline - now_ns();
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left / 1000000)) <= 0) {
      return std::string();
    }
    const ssize_t got = ::read(fds_[c], buf, sizeof buf);
    if (got <= 0) return std::string();
    pending.append(buf, static_cast<std::size_t>(got));
  }
}

}  // namespace perfbench
