// Golden on-disk bytes of the two text formats. dataset_checksum hashes the
// in-memory dataset and the artifact round trips compare predictions, so
// neither notices a writer that spells the same values differently (a
// "%a" token vs a decimal one, a dropped trailing zero). These digests pin
// the FNV-1a 64 of the exact bytes save_dataset and save_model emit for
// small fixed-seed inputs; they were recorded before the writers moved from
// iostreams/printf to std::to_chars and must never move unless a PR
// re-pins them deliberately.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>

#include "core/mart.hpp"
#include "core/serialize.hpp"
#include "util/serialize_io.hpp"

namespace smart::core {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A profiled corpus dressed as a shard of a faulted run, so the file holds
/// every record kind: header, shard, stencil, setting, time (hexfloat and
/// crash) and quar lines.
ProfileDataset golden_corpus(int dims, bool varied) {
  ProfileConfig cfg;
  cfg.dims = dims;
  cfg.num_stencils = 5;
  cfg.samples_per_oc = 2;
  cfg.seed = 4242;
  cfg.sim.noise_sigma = 0.03;
  cfg.vary_problem_size = varied;
  cfg.vary_boundary = varied;
  ProfileDataset ds = build_profile_dataset(cfg);
  ds.shard = ShardSpec{1, 3};
  ds.shard_retries = 2;
  ds.shard_fault_spec = "seed=5;measure:transient:p=0.1";
  ds.quarantined.push_back({0, 3, 1, "injected measure permanent fault"});
  ds.quarantined.push_back({4, 17, 2, "transient fault budget exhausted"});
  ds.times[2][1][5][0] = std::numeric_limits<double>::quiet_NaN();  // crash
  return ds;
}

std::string corpus_digest(const ProfileDataset& ds) {
  std::ostringstream out;
  save_dataset(ds, out);
  return hex64(util::fnv1a64(out.str()));
}

std::string model_bytes(RegressorKind kind) {
  MartConfig config;
  config.regressor = kind;
  config.profile.dims = 2;
  config.profile.num_stencils = 8;
  config.profile.samples_per_oc = 2;
  config.profile.seed = 31337;
  config.regression.epochs = 2;
  config.regression.instance_cap = 300;
  config.tuning_samples = 4;
  StencilMart mart(config);
  mart.train();
  std::ostringstream out;
  save_model(mart, out);
  return out.str();
}

std::string model_digest(RegressorKind kind) {
  return hex64(util::fnv1a64(model_bytes(kind)));
}

TEST(GoldenBytes, CorpusFilesAreByteStable) {
  EXPECT_EQ(corpus_digest(golden_corpus(2, false)), "4c9c01d977251a35");
  EXPECT_EQ(corpus_digest(golden_corpus(3, true)), "ceeaabed6fde5759");
}

TEST(GoldenBytes, CorpusSaveLoadSaveIsByteIdentical) {
  for (const int dims : {2, 3}) {
    std::ostringstream first;
    save_dataset(golden_corpus(dims, dims == 3), first);
    std::istringstream in(first.str());
    std::ostringstream second;
    save_dataset(load_dataset(in), second);
    EXPECT_EQ(second.str(), first.str()) << dims << "-D";
  }
}

TEST(GoldenBytes, ModelArtifactsAreByteStable) {
  EXPECT_EQ(model_digest(RegressorKind::kGbr), "46c1c6f01c66bb07");
  EXPECT_EQ(model_digest(RegressorKind::kMlp), "b874074ed9be9a30");
  EXPECT_EQ(model_digest(RegressorKind::kConvMlp), "14180539dfa9427c");
}

TEST(GoldenBytes, ModelSaveLoadSaveIsByteIdentical) {
  const std::string first = model_bytes(RegressorKind::kConvMlp);
  std::istringstream in(first);
  std::ostringstream second;
  save_model(load_model(in), second);
  EXPECT_EQ(second.str(), first);
}

}  // namespace
}  // namespace smart::core
