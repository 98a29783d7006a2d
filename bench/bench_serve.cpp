// Serve-mode throughput bench: a resident AdvisorServer answering the full
// advise/predict request corpus versus the repeated-cold baseline (what
// `smartctl advise --model` costs per query: deserialize the artifact, run
// one one-item advise_batch, throw the process state away). The in-process
// cold loop is a CONSERVATIVE stand-in for the real thing — it skips
// process spawn and page-cache-cold reads — so the reported speedup is a
// floor on the end-user win.
//
// Before any timing is reported, a sampled equivalence gate unescapes serve
// replies and compares them byte-for-byte against one-item advise_batch
// reports (exit 1 on divergence): throughput numbers for wrong answers are
// worthless.
//
// Appends one trajectory point to BENCH_serve.json (override with
// SMART_BENCH_JSON; scripts/check.sh runs this as a bench-smoke step).
// At SMART_SCALE=1 the corpus is the paper's 500 stencils; the >= 10x
// speedup acceptance gate applies at that scale.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/advisor_server.hpp"
#include "core/serialize.hpp"
#include "core/serve_protocol.hpp"

namespace {

using Clock = std::chrono::steady_clock;

template <typename F>
double wall_ms(F&& f) {
  const auto start = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  return buf;
}

struct ServePoint {
  std::size_t requests = 0;
  std::size_t distinct = 0;
  double cold_ms_per_req = 0.0;
  double resident_ms_per_req = 0.0;
  double speedup = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  double qps = 0.0;
  std::uint64_t memo_hits = 0;
  // Concurrent-clients scaling: one pass over the distinct corpus with C
  // producer threads submitting round-robin (each a stand-in for one
  // connection's reader thread), equivalence-checked against C=1.
  double qps_c1 = 0.0;
  double qps_c4 = 0.0;
  double qps_c16 = 0.0;
};

void append_json(const std::string& path, const ServePoint& p, double scale) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  std::string body;
  const auto open = existing.find('[');
  const auto close = existing.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    body = existing.substr(0, close);
    while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) {
      body.pop_back();
    }
  } else {
    body = "[";
  }
  std::ostringstream out;
  out << body << (body.size() > 1 ? ",\n" : "\n");
  out << "  {\"bench\": \"serve\", \"date\": \"" << timestamp_utc()
      << "\", \"scale\": " << scale << ", \"requests\": " << p.requests
      << ", \"distinct\": " << p.distinct << ", \"cold_ms_per_req\": "
      << smart::util::format_double(p.cold_ms_per_req, 3)
      << ", \"resident_ms_per_req\": "
      << smart::util::format_double(p.resident_ms_per_req, 3)
      << ", \"speedup\": " << smart::util::format_double(p.speedup, 1)
      << ", \"p50_us\": " << p.p50_us << ", \"p99_us\": " << p.p99_us
      << ", \"qps\": " << smart::util::format_double(p.qps, 1)
      << ", \"memo_hits\": " << p.memo_hits
      << ", \"qps_c1\": " << smart::util::format_double(p.qps_c1, 1)
      << ", \"qps_c4\": " << smart::util::format_double(p.qps_c4, 1)
      << ", \"qps_c16\": " << smart::util::format_double(p.qps_c16, 1) << "}";
  out << "\n]\n";
  std::ofstream f(path, std::ios::trunc);
  f << out.str();
}

}  // namespace

int main() {
  using namespace smart;
  bench::print_banner(
      "serve-mode resident daemon throughput",
      "resident batched advisory vs repeated cold advise --model");

  // Train once on the scaled corpus and persist the artifact the cold loop
  // will deserialize per request (exactly `smartctl advise --model`'s cost
  // profile minus process spawn).
  core::MartConfig mart_config;
  mart_config.profile = bench::scaled_profile_config(2);
  core::StencilMart mart(mart_config);
  mart.train();
  const std::string model_path = "/tmp/bench_serve_model.smart";
  core::save_model(mart, model_path);

  // Request corpus: the paper-scale stencil set (500 at SMART_SCALE=1),
  // every stencil spelled as explicit offsets so each is a distinct
  // protocol-level request; 3 passes model clients re-querying a resident
  // daemon (the memo answers repeats).
  const int distinct = util::scaled(500, 30);
  stencil::GeneratorConfig gen_config;
  gen_config.dims = 2;
  const stencil::RandomStencilGenerator generator(gen_config);
  util::Rng rng(20260809);
  const char* gpus[] = {"V100", "A100", "P100", "2080Ti"};
  std::vector<stencil::StencilPattern> patterns;
  std::vector<std::string> pattern_gpu;
  std::vector<std::string> requests;
  for (int i = 0; i < distinct; ++i) {
    const auto pattern = generator.generate(rng);
    const std::string gpu = gpus[i % 4];
    std::string offsets;
    for (const auto& p : pattern.offsets()) {
      if (!offsets.empty()) offsets += ';';
      for (int a = 0; a < pattern.dims(); ++a) {
        if (a > 0) offsets += ',';
        offsets += std::to_string(p[a]);
      }
    }
    const bool predict_only = i % 4 == 3;
    requests.push_back(std::string(predict_only ? "predict" : "advise") +
                       " q" + std::to_string(i) + " offsets=" + offsets +
                       " gpu=" + gpu);
    patterns.push_back(pattern);
    pattern_gpu.push_back(gpu);
  }
  const int kPasses = 3;

  // The one-item advise_batch call a request costs; predict requests skip
  // the rental recommendation.
  const auto single_item = [&](std::size_t i) {
    return core::AdviseBatchItem{patterns[i], pattern_gpu[i], i % 4 != 3};
  };

  // --- cold baseline: load + one-item advise_batch per request, on a
  // sample (the whole corpus cold would take minutes at paper scale for no
  // extra information — the per-request cost is flat).
  const std::size_t cold_sample =
      std::min(patterns.size(), static_cast<std::size_t>(10));
  const double cold_total_ms = wall_ms([&] {
    for (std::size_t i = 0; i < cold_sample; ++i) {
      const core::StencilMart cold = core::load_model(model_path);
      const core::AdviseBatchItem item = single_item(i);
      (void)cold.advise_batch({&item, 1});
    }
  });
  const double cold_ms_per_req =
      cold_total_ms / static_cast<double>(cold_sample);

  // --- resident daemon: the full corpus, kPasses times, pipelined.
  core::ServeConfig serve_config;
  serve_config.max_batch = 64;
  serve_config.max_wait_us = 200;
  core::AdvisorServer server(mart, serve_config);
  std::vector<std::string> replies(requests.size());
  std::mutex replies_mu;
  const double resident_total_ms = wall_ms([&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const bool keep_first_pass = pass == 0;
        server.submit(requests[i], [&, i, keep_first_pass](
                                       const std::string& line) {
          if (keep_first_pass) {
            const std::lock_guard<std::mutex> lk(replies_mu);
            replies[i] = line;
          }
        });
      }
      server.drain();
    }
  });
  const std::size_t total_requests = requests.size() * kPasses;
  const double resident_ms_per_req =
      resident_total_ms / static_cast<double>(total_requests);
  const auto counters = server.counters_snapshot();

  // --- equivalence gate before reporting any number.
  bool identical = true;
  for (std::size_t i = 0; i < cold_sample && identical; ++i) {
    const std::string prefix = "ok q" + std::to_string(i) + ' ';
    if (replies[i].rfind(prefix, 0) != 0) {
      identical = false;
      break;
    }
    if (i % 4 == 3) continue;  // predict replies checked structurally above
    const core::AdviseBatchItem item = single_item(i);
    const core::AdviseBatchResult result = mart.advise_batch({&item, 1})[0];
    const std::string want = core::advise_report(
        patterns[i], pattern_gpu[i], result.advice, result.rec);
    identical =
        core::serve::unescape_text(replies[i].substr(prefix.size())) == want;
  }

  // --- concurrent-clients scaling: C producer threads over one pass of the
  // distinct corpus, each on a fresh server (cold memo) so the C points are
  // comparable. The sorted reply SET for every C must equal C=1's — the
  // multi-client determinism contract, enforced before reporting.
  const auto run_concurrent = [&](int producers,
                                  std::vector<std::string>& sorted) {
    core::AdvisorServer concurrent_server(mart, serve_config);
    std::vector<std::string> all;
    std::mutex all_mu;
    const double ms = wall_ms([&] {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(producers));
      for (int c = 0; c < producers; ++c) {
        threads.emplace_back([&, c] {
          for (std::size_t i = static_cast<std::size_t>(c);
               i < requests.size(); i += static_cast<std::size_t>(producers)) {
            concurrent_server.submit(requests[i], [&](const std::string& line) {
              const std::lock_guard<std::mutex> lk(all_mu);
              all.push_back(line);
            });
          }
        });
      }
      for (auto& t : threads) t.join();
      concurrent_server.drain();
    });
    std::sort(all.begin(), all.end());
    sorted = std::move(all);
    return requests.empty() ? 0.0
                            : static_cast<double>(requests.size()) * 1000.0 / ms;
  };
  std::vector<std::string> sorted_c1, sorted_c4, sorted_c16;
  const double qps_c1 = run_concurrent(1, sorted_c1);
  const double qps_c4 = run_concurrent(4, sorted_c4);
  const double qps_c16 = run_concurrent(16, sorted_c16);
  const bool concurrent_identical =
      sorted_c4 == sorted_c1 && sorted_c16 == sorted_c1;

  ServePoint point;
  point.requests = total_requests;
  point.distinct = patterns.size();
  point.cold_ms_per_req = cold_ms_per_req;
  point.resident_ms_per_req = resident_ms_per_req;
  point.speedup = resident_ms_per_req > 0.0
                      ? cold_ms_per_req / resident_ms_per_req
                      : 0.0;
  point.p50_us = counters.p50_us;
  point.p99_us = counters.p99_us;
  point.qps = counters.qps;
  point.memo_hits = counters.memo_hits;
  point.qps_c1 = qps_c1;
  point.qps_c4 = qps_c4;
  point.qps_c16 = qps_c16;

  util::Table table({"mode", "requests", "ms/req", "p50(us)", "p99(us)",
                     "qps", "memo_hits"});
  table.row()
      .add("cold advise --model")
      .add(static_cast<long long>(cold_sample))
      .add(cold_ms_per_req, 2)
      .add("-")
      .add("-")
      .add("-")
      .add("-");
  table.row()
      .add("resident serve")
      .add(static_cast<long long>(total_requests))
      .add(resident_ms_per_req, 2)
      .add(std::to_string(point.p50_us))
      .add(std::to_string(point.p99_us))
      .add(util::format_double(point.qps, 0))
      .add(std::to_string(point.memo_hits));
  bench::emit(table, "serve");

  util::Table scaling({"clients", "requests", "qps", "vs 1 client"});
  const auto scaling_row = [&](const char* label, double qps_c) {
    scaling.row()
        .add(label)
        .add(static_cast<long long>(requests.size()))
        .add(util::format_double(qps_c, 0))
        .add(qps_c1 > 0.0 ? util::format_double(qps_c / qps_c1, 2) + "x" : "-");
  };
  scaling_row("1", qps_c1);
  scaling_row("4", qps_c4);
  scaling_row("16", qps_c16);
  bench::emit(scaling, "serve concurrent-clients scaling");
  std::cout << "   concurrent reply-set equivalence: "
            << (concurrent_identical ? "verified" : "FAILED") << '\n';

  std::cout << "   resident speedup: "
            << util::format_double(point.speedup, 1) << "x over cold ("
            << point.distinct << " distinct stencils x " << kPasses
            << " passes, equivalence "
            << (identical ? "verified" : "FAILED") << ")\n";

  if (!identical) {
    std::cout << "FAIL: serve replies diverge from one-item advise_batch\n";
    return 1;
  }
  if (!concurrent_identical) {
    std::cout << "FAIL: concurrent-client reply sets diverge from 1-client\n";
    return 1;
  }

  const char* env_path = std::getenv("SMART_BENCH_JSON");
  const std::string json_path = env_path ? env_path : "BENCH_serve.json";
  append_json(json_path, point, util::experiment_scale());
  std::cout << "   [json] " << json_path << "\n";
  std::remove(model_path.c_str());
  return 0;
}
