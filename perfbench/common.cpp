#include "common.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/timing.hpp"

namespace perfbench {

// ---------------------------------------------------------------- inputs

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix::below(std::uint64_t n) { return next() % n; }

std::uint64_t derive_seed(std::uint64_t seed, std::string_view label) {
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  SplitMix mix(h);
  return mix.next();
}

namespace {

using smart::stencil::Point;
using smart::stencil::StencilPattern;

Point make_point(int dims, int x, int y, int z) {
  return dims == 2 ? Point(x, y) : Point(x, y, z);
}

StencilPattern grow_stencil(SplitMix& rng, int dims, int order) {
  std::vector<Point> selected{Point{}};
  std::vector<Point> previous{Point{}};
  const int zr = dims == 3 ? 1 : 0;
  for (int k = 1; k <= order; ++k) {
    // Order-k candidates: Moore neighbours of the order-(k-1) points that
    // lie on the order-k shell.
    std::vector<Point> candidates;
    for (const Point& p : previous) {
      for (int dz = -zr; dz <= zr; ++dz) {
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const Point q = make_point(dims, p[0] + dx, p[1] + dy, p[2] + dz);
            if (q.order() != k) continue;
            if (std::find(candidates.begin(), candidates.end(), q) ==
                candidates.end()) {
              candidates.push_back(q);
            }
          }
        }
      }
    }
    std::sort(candidates.begin(), candidates.end());
    std::vector<Point> kept;
    for (const Point& q : candidates) {
      if (rng.uniform() < 0.45) kept.push_back(q);
    }
    if (kept.empty()) kept.push_back(candidates[rng.below(candidates.size())]);
    selected.insert(selected.end(), kept.begin(), kept.end());
    previous = std::move(kept);
  }
  return StencilPattern(dims, std::move(selected));
}

}  // namespace

StencilPattern StencilStream::next() {
  for (;;) {
    const int order = 2 + static_cast<int>(rng_.below(3));
    StencilPattern pattern = grow_stencil(rng_, dims_, order);
    if (seen_.insert(offsets_text(pattern)).second) return pattern;
  }
}

std::string offsets_text(const StencilPattern& pattern) {
  std::string text;
  for (const auto& p : pattern.offsets()) {
    if (!text.empty()) text += ';';
    for (int a = 0; a < pattern.dims(); ++a) {
      if (a > 0) text += ',';
      text += std::to_string(p[a]);
    }
  }
  return text;
}

std::string request_line(const Query& query, std::string_view id,
                         const std::vector<std::string>& offsets) {
  std::string line = query.advise ? "advise " : "predict ";
  line += id;
  line += " offsets=";
  line += offsets[static_cast<std::size_t>(query.pattern)];
  line += " gpu=";
  line += query.gpu;
  return line;
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

std::string samples_text(const std::vector<double>& values) {
  std::string text;
  for (const double v : values) {
    if (!text.empty()) text += ' ';
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    text += buf;
  }
  return text;
}

Tail tail_summary(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  tail.p50 = percentile_sorted(values, 50.0);
  tail.top_q = 50.0;
  tail.top = tail.p50;
  for (const double q : {90.0, 99.0, 99.9, 99.99}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(values.size())));
    if (values.size() - std::min(rank, values.size()) < 10) break;
    tail.top_q = q;
    tail.top = percentile_sorted(values, q);
  }
  return tail;
}

Zipf::Zipf(std::size_t n, double s) {
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::sample(SplitMix& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<int> rate_ladder() {
  std::vector<int> rungs;
  for (int k = 0;; ++k) {
    const int rate = static_cast<int>(std::lround(1000.0 * std::pow(1.05, k)));
    if (rate > 200000) break;
    rungs.push_back(rate);
  }
  return rungs;
}

// ---------------------------------------------------- failure accounting

void Tally::count_reply(std::string_view line) {
  if (line.starts_with("ok ")) {
    ++ok;
    return;
  }
  // err <id> <message>: the shed classes carry fixed messages.
  const std::size_t id_end = line.find(' ', 4);
  const std::string_view message =
      id_end == std::string_view::npos ? "" : line.substr(id_end + 1);
  if (message.starts_with("busy")) ++busy;
  else if (message.starts_with("deadline")) ++deadline;
  else ++err;
}

std::string Tally::json() const {
  std::ostringstream out;
  out << "{\"attempted\": " << attempted << ", \"ok\": " << ok
      << ", \"err\": " << err << ", \"busy\": " << busy
      << ", \"deadline\": " << deadline << ", \"missing\": " << missing
      << ", \"mismatched\": " << mismatched << "}";
  return out.str();
}

// ---------------------------------------------------------------- tracing

int Tracer::begin(std::string name, std::uint64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, std::uint64_t request) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
}

double Tracer::self_ms(int index) const {
  // Union of the children's intervals, clipped to the parent.
  const Span& parent = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const Span& s : spans_) {
    if (s.parent != index) continue;
    covered.emplace_back(std::max(s.start_ns, parent.start_ns),
                         std::min(s.end_ns, parent.end_ns));
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t total = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [start, end] : covered) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) {
      total += end - from;
      reach = end;
    }
  }
  return ms_between(0, parent.end_ns - parent.start_ns - total);
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"self_ms\": " << number_text(self_ms(static_cast<int>(i)))
        << "}\n";
  }
}

std::map<std::string, CounterDelta> counter_state() {
  std::map<std::string, CounterDelta> state;
  for (const auto& [name, stats] : smart::util::timing_snapshot()) {
    state[name] = CounterDelta{stats.wall_ms, stats.calls, stats.tasks};
  }
  return state;
}

CounterDelta counter_delta(const std::map<std::string, CounterDelta>& before,
                           const std::map<std::string, CounterDelta>& after,
                           const std::string& name) {
  CounterDelta delta;
  const auto a = after.find(name);
  if (a == after.end()) return delta;
  delta = a->second;
  const auto b = before.find(name);
  if (b != before.end()) {
    delta.wall_ms -= b->second.wall_ms;
    delta.calls -= b->second.calls;
    delta.tasks -= b->second.tasks;
  }
  return delta;
}

// -------------------------------------------------------------- processes

namespace {

pid_t spawn(const std::vector<std::string>& argv, int& out_fd) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd = fds[0];
  return pid;
}

}  // namespace

ProcResult run_process(const std::vector<std::string>& argv, double timeout_s) {
  ProcResult result;
  int out_fd = -1;
  const std::int64_t start = now_ns();
  const pid_t pid = spawn(argv, out_fd);
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(timeout_s * 1e9);
  char buf[65536];
  for (;;) {
    pollfd pfd{out_fd, POLLIN, 0};
    const int left_ms =
        static_cast<int>(std::max<std::int64_t>(0, deadline - now_ns()) / 1000000);
    const int n = ::poll(&pfd, 1, left_ms);
    if (n == 0) {
      ::kill(pid, SIGKILL);
      break;
    }
    if (n < 0) continue;
    const ssize_t got = ::read(out_fd, buf, sizeof buf);
    if (got <= 0) break;
    result.out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(out_fd);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.wall_ms = ms_between(start, now_ns());
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.ok = WIFEXITED(status) && result.code == 0;
  return result;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Daemon::start(const std::vector<std::string>& argv, double timeout_s) {
  pid_ = spawn(argv, out_fd_);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  std::string seen;
  char buf[4096];
  while (seen.find("serve: listening on") == std::string::npos) {
    pollfd pfd{out_fd_, POLLIN, 0};
    const int left_ms =
        static_cast<int>(std::max<std::int64_t>(0, deadline - now_ns()) / 1000000);
    const int n = ::poll(&pfd, 1, left_ms);
    const ssize_t got = n > 0 ? ::read(out_fd_, buf, sizeof buf) : 0;
    if (n == 0 || got <= 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    seen.append(buf, static_cast<std::size_t>(got));
  }
  return true;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double Daemon::peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

double Daemon::cpu_ms() const {
  // The first schedstat field is the thread's on-CPU time in ns. The
  // daemon's threads (sessions, batcher, pool) live as long as the
  // connections, so sums taken around a phase difference cleanly.
  double ns = 0.0;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
    std::ifstream stat(entry.path() / "schedstat");
    double on_cpu = 0.0;
    if (stat >> on_cpu) ns += on_cpu;
  }
  return ns / 1e6;
}

bool Daemon::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ------------------------------------------------------------ provenance

std::string Provenance::json() const {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
      << ", \"threads\": " << threads << ", \"hw_threads\": " << hw_threads
      << ", \"isa\": " << json_string(isa)
      << ", \"build_type\": " << json_string(build_type)
      << ", \"git\": " << json_string(git)
      << ", \"daemon_flags\": " << json_string(daemon_flags) << "}";
  return out.str();
}

// ----------------------------------------------------------------- report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : metrics_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, {value, unit}});
}

void Report::phase(const std::string& name, const Tally& tally) {
  phases_.emplace_back(name, tally);
}

void Report::gate(const std::string& name, bool passed) {
  gates_.emplace_back(name, passed);
  count_ops(1, passed ? 0 : 1);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::has(const std::string& name) const {
  for (const auto& entry : metrics_) {
    if (entry.first == name) return true;
  }
  return false;
}

double Report::value(const std::string& name) const {
  for (const auto& entry : metrics_) {
    if (entry.first == name) return entry.second.first;
  }
  return 0.0;
}

void Report::print(const Provenance& provenance, bool complete) const {
  for (const std::string& line : notes_) std::cout << line << '\n';
  for (const auto& [name, tally] : phases_) {
    std::cout << "phase " << name << ' ' << tally.json() << '\n';
  }
  for (const auto& [name, passed] : gates_) {
    std::cout << "gate " << name << ' ' << (passed ? "ok" : "FAILED") << '\n';
  }
  // error_share is failed / attempted of the final line; it is 0 on a
  // correct run, so it is printed here rather than carried as a metric.
  const double share =
      attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                     : 0.0;
  std::cout << "error_share " << number_text(share) << " ratio (" << failed_
            << " failed of " << attempted_ << " attempted)\n";
  const std::string metrics = entries_json(metrics_);
  std::cout << "row {\"provenance\": " << provenance.json()
            << ", \"error_share\": " << number_text(share)
            << ", \"metrics\": {" << metrics << "}, \"details\": {"
            << entries_json(details_) << "}}\n";
  const bool correct = complete && failed_ == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
}

std::string Report::entries_json(const Entries& entries) {
  std::string out;
  for (const auto& [name, entry] : entries) {
    out += (out.empty() ? "" : ", ") + json_string(name) + ": {\"value\": " +
           number_text(entry.first) + ", \"unit\": " + json_string(entry.second) +
           "}";
  }
  return out;
}

std::string number_text(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
