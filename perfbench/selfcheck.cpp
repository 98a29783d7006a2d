// Self-checks of the benchmark's own parts, run at the start of every run;
// a failed check is a failed operation, so the run reports correct=false.
#include <sstream>

#include "core/profile_dataset.hpp"
#include "core/serialize.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The ladder pinned: rung count and a digest of every rate.
constexpr std::size_t kLadderRungs = 109;
constexpr std::uint64_t kLadderDigest = 0x48f6d29e19384a3aull;

}  // namespace

void self_check(Report& report) {
  // Same seed, same request stream; another seed, another stream.
  ServeSpec distinct;
  ServeSpec zipf;
  zipf.zipf = true;
  zipf.reload_traffic = true;
  for (const ServeSpec* spec : {&distinct, &zipf}) {
    const std::string a = request_stream(7, *spec, 1.0);
    report.gate(std::string("self.stream_repeats.") + (spec->zipf ? "zipf" : "distinct"),
                !a.empty() && a == request_stream(7, *spec, 1.0) &&
                    a != request_stream(8, *spec, 1.0));
  }

  // Same seed, same corpus bytes (a small corpus through the same code).
  {
    smart::core::ProfileConfig config;
    config.num_stencils = 12;
    config.seed = 7;
    std::ostringstream a, b;
    smart::core::save_dataset(smart::core::build_profile_dataset(config), a);
    smart::core::save_dataset(smart::core::build_profile_dataset(config), b);
    report.gate("self.corpus_repeats", !a.str().empty() && a.str() == b.str());
  }

  // Percentile helper: the highest percentile with >= 10 samples beyond it.
  {
    std::vector<double> thousand, hundred, nine;
    for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
    for (int i = 1; i <= 100; ++i) hundred.push_back(101 - i);
    for (int i = 1; i <= 9; ++i) nine.push_back(i);
    const Tail t1000 = tail_summary(thousand);
    const Tail t100 = tail_summary(hundred);
    const Tail t9 = tail_summary(nine);
    report.gate("self.percentile_helper",
                t1000.samples == 1000 && t1000.p50 == 500 && t1000.top_q == 99.0 &&
                    t1000.top == 990 && t100.samples == 100 && t100.top_q == 90.0 &&
                    t100.top == 90 && t9.top_q == 50.0 && t9.p50 == 5);
  }

  // Zipf sampler: deterministic for a seed, rank 0 drawn most often.
  {
    const Zipf zipf_pool(2000, 1.0);
    SplitMix a(11), b(11);
    bool same = true;
    std::size_t rank0 = 0, rank1 = 0;
    for (int i = 0; i < 20000; ++i) {
      const std::size_t x = zipf_pool.sample(a);
      same = same && x == zipf_pool.sample(b);
      rank0 += x == 0;
      rank1 += x == 1;
    }
    report.gate("self.zipf_deterministic", same && rank0 > rank1 && rank1 > 0);
  }

  // The rate ladder is the same on every commit.
  {
    const std::vector<int> rungs = rate_ladder();
    std::string text;
    bool steps_ok = !rungs.empty() && rungs.front() == 1000;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      text += std::to_string(rungs[i]) + ',';
      if (i > 0) steps_ok = steps_ok && rungs[i] <= rungs[i - 1] * 1.1 && rungs[i] > rungs[i - 1];
    }
    report.gate("self.rate_ladder_pinned",
                steps_ok && rungs.size() == kLadderRungs && fnv1a(text) == kLadderDigest);
  }
}

}  // namespace perfbench
