#include "core/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/serialize_io.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

constexpr const char* kMagic = "stencilmart-dataset-v1";
constexpr const char* kModelMagic = "stencilmart-model-v1";
constexpr const char* kModelMagicPrefix = "stencilmart-model-";

std::string checksum_hex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(util::fnv1a64(bytes)));
  return buf;
}

std::string encode_offsets(const stencil::StencilPattern& pattern) {
  std::ostringstream os;
  bool first = true;
  for (const stencil::Point& p : pattern.offsets()) {
    if (!first) os << ';';
    first = false;
    os << static_cast<int>(p[0]) << ':' << static_cast<int>(p[1]) << ':'
       << static_cast<int>(p[2]);
  }
  return os.str();
}

stencil::StencilPattern decode_offsets(int dims, const std::string& text) {
  std::vector<stencil::Point> points;
  std::istringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ';')) {
    int x = 0;
    int y = 0;
    int z = 0;
    if (std::sscanf(token.c_str(), "%d:%d:%d", &x, &y, &z) != 3) {
      throw std::runtime_error("load_dataset: bad offset token '" + token + "'");
    }
    // A Point stores int8 coordinates: bound them before they can wrap.
    if (std::max({std::abs(x), std::abs(y), std::abs(z)}) > stencil::kMaxOrder) {
      throw std::runtime_error(
          "load_dataset: offset coordinate out of range in '" + token + "'");
    }
    points.push_back(stencil::Point{x, y, z});
  }
  return stencil::StencilPattern(dims, std::move(points));
}

void encode_setting(std::ostream& out, const gpusim::ParamSetting& s) {
  out << s.block_x << ' ' << s.block_y << ' ' << s.merge_factor << ' '
      << s.merge_dim << ' ' << s.unroll << ' ' << s.stream_tile << ' '
      << s.stream_dim << ' ' << (s.use_smem ? 1 : 0) << ' ' << s.tb_depth;
}

gpusim::ParamSetting decode_setting(std::istream& in) {
  gpusim::ParamSetting s;
  int use_smem = 0;
  in >> s.block_x >> s.block_y >> s.merge_factor >> s.merge_dim >> s.unroll >>
      s.stream_tile >> s.stream_dim >> use_smem >> s.tb_depth;
  s.use_smem = use_smem != 0;
  return s;
}

/// Parse-error context for the corpus reader: every failure names the
/// source and 1-based line, e.g. "corpus.txt:1042: unparsable time field".
class DatasetParseContext {
 public:
  explicit DatasetParseContext(std::string source)
      : source_(std::move(source)) {}

  void advance() noexcept { ++line_no_; }
  std::size_t line() const noexcept { return line_no_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(source_ + ":" + std::to_string(line_no_) + ": " +
                             what);
  }
  void expect(bool condition, const std::string& what) const {
    if (!condition) fail(what);
  }

 private:
  std::string source_;
  std::size_t line_no_ = 0;
};

}  // namespace

void save_dataset(const ProfileDataset& ds, std::ostream& out) {
  const util::PhaseTimer timer("serialize.save_corpus");
  out << kMagic << '\n';
  out << std::setprecision(17);
  out << ds.config.dims << ' ' << ds.config.max_order << ' '
      << ds.stencils.size() << ' ' << ds.config.samples_per_oc << ' '
      << ds.config.seed << ' ' << ds.config.sim.noise_sigma << ' '
      << (ds.config.vary_problem_size ? 1 : 0) << ' '
      << (ds.config.vary_boundary ? 1 : 0) << '\n';
  // Shard header: only partial corpora carry one, so a complete corpus —
  // including `smartctl merge` output — stays byte-identical to the
  // pre-shard format (and to an uninterrupted single-process run).
  if (ds.shard.sharded()) {
    out << "shard " << ds.shard.index << ' ' << ds.shard.count << ' '
        << ds.shard_retries << ' '
        << (ds.shard_fault_spec.empty() ? "-" : ds.shard_fault_spec) << '\n';
  }

  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    const auto& prob = ds.problems[s];
    out << "stencil " << prob.nx << ' ' << prob.ny << ' ' << prob.nz << ' '
        << (prob.boundary == stencil::Boundary::kPeriodic ? 1 : 0) << ' '
        << encode_offsets(ds.stencils[s]) << '\n';
  }
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
      for (const auto& setting : ds.settings[s][oc]) {
        out << "setting " << s << ' ' << oc << ' ';
        encode_setting(out, setting);
        out << '\n';
      }
    }
  }
  for (std::size_t s = 0; s < ds.stencils.size(); ++s) {
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      for (std::size_t oc = 0; oc < ProfileDataset::num_ocs(); ++oc) {
        const auto& ts = ds.times[s][g][oc];
        for (std::size_t k = 0; k < ts.size(); ++k) {
          out << "time " << s << ' ' << g << ' ' << oc << ' ' << k << ' ';
          if (std::isnan(ts[k])) {
            out << "crash";
          } else {
            out << std::hexfloat << ts[k] << std::defaultfloat;
          }
          out << '\n';
        }
      }
    }
  }
  for (const auto& q : ds.quarantined) {
    out << "quar " << q.stencil << ' ' << q.oc << ' ' << q.gpu << ' '
        << q.reason << '\n';
  }
  if (!out) throw std::runtime_error("save_dataset: stream write failed");
}

void save_dataset(const ProfileDataset& dataset, const std::string& path) {
  util::atomic_write(
      path, [&dataset](std::ostream& out) { save_dataset(dataset, out); });
}

ProfileDataset load_dataset(std::istream& in, const std::string& source) {
  const util::PhaseTimer timer("serialize.load_corpus");
  DatasetParseContext ctx(source);
  std::string line;

  ctx.advance();
  ctx.expect(static_cast<bool>(std::getline(in, line)), "empty corpus file");
  ctx.expect(line == kMagic,
             "not a StencilMART corpus (bad magic '" + line + "')");

  ProfileDataset ds;
  std::size_t num_stencils = 0;
  {
    ctx.advance();
    ctx.expect(static_cast<bool>(std::getline(in, line)), "missing header");
    std::istringstream header(line);
    int vary_size = 0;
    int vary_boundary = 0;
    header >> ds.config.dims >> ds.config.max_order >> num_stencils >>
        ds.config.samples_per_oc >> ds.config.seed >>
        ds.config.sim.noise_sigma >> vary_size >> vary_boundary;
    ctx.expect(static_cast<bool>(header), "unparsable header");
    ctx.expect(ds.config.dims == 2 || ds.config.dims == 3,
               "header dims must be 2 or 3");
    ctx.expect(ds.config.max_order >= 1 &&
                   ds.config.max_order <= stencil::kMaxOrder,
               "header max_order must be in [1, 4]");
    ds.config.num_stencils = static_cast<int>(num_stencils);
    ds.config.vary_problem_size = vary_size != 0;
    ds.config.vary_boundary = vary_boundary != 0;
  }
  ds.problem = gpusim::ProblemSize::paper_default(ds.config.dims);
  ds.gpus = gpusim::evaluation_gpus();

  // The header's stencil count is untrusted: the per-stencil tables grow
  // with each stencil record, and setting/time/quar records may only name
  // a stencil already read (save_dataset writes stencils first).
  const std::size_t num_ocs = ProfileDataset::num_ocs();

  while (std::getline(in, line)) {
    ctx.advance();
    if (line.empty()) continue;
    std::istringstream record(line);
    std::string tag;
    record >> tag;
    if (tag == "shard") {
      ctx.expect(!ds.shard.sharded(), "duplicate shard header");
      std::string spec;
      record >> ds.shard.index >> ds.shard.count >> ds.shard_retries >> spec;
      ctx.expect(static_cast<bool>(record), "unparsable shard header");
      ctx.expect(ds.shard.count >= 2 && ds.shard.index < ds.shard.count,
                 "shard header out of range (want 0 <= i < N, N >= 2)");
      ctx.expect(ds.shard_retries >= 0, "negative shard retry budget");
      ds.shard_fault_spec = spec == "-" ? std::string{} : spec;
    } else if (tag == "stencil") {
      gpusim::ProblemSize prob;
      int periodic = 0;
      std::string offsets;
      record >> prob.nx >> prob.ny >> prob.nz >> periodic >> offsets;
      ctx.expect(static_cast<bool>(record), "unparsable stencil record");
      prob.boundary = periodic != 0 ? stencil::Boundary::kPeriodic
                                    : stencil::Boundary::kDirichletZero;
      ds.problems.push_back(prob);
      try {
        ds.stencils.push_back(decode_offsets(ds.config.dims, offsets));
      } catch (const std::exception& e) {
        ctx.fail(e.what());
      }
      ctx.expect(ds.stencils.back().order() <= ds.config.max_order,
                 "stencil order exceeds the header's max_order");
      ds.settings.emplace_back(num_ocs);
      ds.times.emplace_back(ds.gpus.size(),
                            std::vector<std::vector<double>>(num_ocs));
    } else if (tag == "setting") {
      std::size_t s = 0;
      std::size_t oc = 0;
      record >> s >> oc;
      ctx.expect(static_cast<bool>(record), "unparsable setting indices");
      ctx.expect(s < ds.stencils.size() && oc < num_ocs,
                 "setting index out of range");
      ds.settings[s][oc].push_back(decode_setting(record));
      ctx.expect(static_cast<bool>(record), "unparsable setting record");
    } else if (tag == "time") {
      std::size_t s = 0;
      std::size_t g = 0;
      std::size_t oc = 0;
      std::size_t k = 0;
      std::string value;
      record >> s >> g >> oc >> k >> value;
      ctx.expect(static_cast<bool>(record), "unparsable time record");
      ctx.expect(s < ds.stencils.size() && g < ds.gpus.size() && oc < num_ocs,
                 "time index out of range");
      auto& ts = ds.times[s][g][oc];
      ctx.expect(k == ts.size(), "time records out of order");
      if (value == "crash") {
        ts.push_back(std::numeric_limits<double>::quiet_NaN());
      } else {
        // Strict parse: a half-parsed token silently becoming 0.0 (or a
        // smuggled NaN/inf) would corrupt every model trained on the corpus.
        double time_ms = 0.0;
        ctx.expect(util::parse_f64_strict(value, time_ms),
                   "unparsable time field '" + value + "'");
        ctx.expect(std::isfinite(time_ms) && time_ms > 0.0,
                   "non-finite or non-positive time field '" + value + "'");
        ts.push_back(time_ms);
      }
    } else if (tag == "quar") {
      QuarantineRecord q;
      record >> q.stencil >> q.oc >> q.gpu;
      ctx.expect(static_cast<bool>(record), "unparsable quarantine record");
      ctx.expect(q.stencil < ds.stencils.size() && q.gpu < ds.gpus.size() &&
                     q.oc < num_ocs,
                 "quarantine index out of range");
      std::getline(record, q.reason);
      if (!q.reason.empty() && q.reason.front() == ' ') q.reason.erase(0, 1);
      ds.quarantined.push_back(std::move(q));
    } else {
      ctx.fail("unknown tag '" + tag + "'");
    }
  }
  ctx.expect(ds.stencils.size() == num_stencils,
             "stencil count mismatch (header says " +
                 std::to_string(num_stencils) + ", file has " +
                 std::to_string(ds.stencils.size()) + ")");
  return ds;
}

ProfileDataset load_dataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_dataset: cannot open " + path);
  return load_dataset(in, path);
}

// ----- model artifacts -------------------------------------------------------

void save_model(const StencilMart& mart, std::ostream& out) {
  const util::PhaseTimer timer("serialize.save");
  if (!mart.trained()) {
    throw std::logic_error("save_model: StencilMart is not trained");
  }

  std::ostringstream payload;
  const MartConfig& c = mart.config_;
  payload << "config " << c.profile.dims << ' ' << c.profile.max_order << ' '
          << c.profile.num_stencils << ' ' << c.profile.samples_per_oc << ' '
          << c.profile.seed << ' ';
  util::write_f64(payload, c.profile.sim.noise_sigma);
  payload << ' ' << c.profile.sim.seed << ' '
          << (c.profile.vary_problem_size ? 1 : 0) << ' '
          << (c.profile.vary_boundary ? 1 : 0) << '\n';
  const RegressionConfig& r = c.regression;
  payload << "regconfig " << r.folds << ' ' << r.epochs << ' ' << r.batch_size
          << ' ';
  util::write_f64(payload, r.learning_rate);
  payload << ' ' << r.mlp_hidden_layers << ' ' << r.mlp_width << ' '
          << r.instance_cap << ' ' << r.seed << '\n';
  payload << "regressor " << to_string(c.regressor) << ' ' << c.tuning_samples
          << '\n';
  mart.merger_.save(payload);
  payload << "classifiers " << mart.classifiers_.size() << '\n';
  for (const auto& clf : mart.classifiers_) clf.save(payload);
  mart.regression_->save_fitted(payload);

  const std::string bytes = payload.str();
  out << kModelMagic << '\n';
  out << "payload " << bytes.size() << '\n';
  out << bytes;
  out << "checksum " << checksum_hex(bytes) << '\n';
  if (!out) throw std::runtime_error("save_model: stream write failed");
}

void save_model(const StencilMart& mart, const std::string& path) {
  util::atomic_write(
      path, [&mart](std::ostream& out) { save_model(mart, out); });
}

StencilMart load_model(std::istream& in, const std::string& source) {
  const util::PhaseTimer timer("serialize.load");
  std::string magic;
  if (!std::getline(in, magic)) {
    throw std::runtime_error("load_model: empty stream");
  }
  if (magic != kModelMagic) {
    if (magic.rfind(kModelMagicPrefix, 0) == 0) {
      throw std::runtime_error("load_model: unsupported model format version '" +
                               magic + "' (this build reads " +
                               std::string(kModelMagic) + ")");
    }
    throw std::runtime_error(
        "load_model: not a StencilMART model artifact (bad magic)");
  }
  util::expect_word(in, "payload", "load_model payload header");
  const std::size_t payload_size =
      util::read_size(in, "load_model payload size");
  if (in.get() != '\n') {
    throw std::runtime_error("load_model: malformed payload header");
  }
  std::string bytes(payload_size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<std::size_t>(in.gcount()) != payload_size) {
    throw std::runtime_error(
        "load_model: truncated artifact (payload cut short)");
  }
  util::expect_word(in, "checksum", "load_model checksum header");
  const std::string digest = util::read_token(in, "load_model checksum");
  if (digest != checksum_hex(bytes)) {
    throw std::runtime_error(
        "load_model: checksum mismatch — the artifact is corrupted");
  }

  std::istringstream payload(bytes);
  try {
    MartConfig config;
    util::expect_word(payload, "config", "load_model config section");
    config.profile.dims = util::read_int(payload, "config dims");
    config.profile.max_order = util::read_int(payload, "config max_order");
    config.profile.num_stencils = util::read_int(payload, "config num_stencils");
    config.profile.samples_per_oc =
        util::read_int(payload, "config samples_per_oc");
    config.profile.seed = util::read_u64(payload, "config seed");
    config.profile.sim.noise_sigma =
        util::read_f64(payload, "config noise_sigma");
    config.profile.sim.seed = util::read_u64(payload, "config sim seed");
    config.profile.vary_problem_size =
        util::read_int(payload, "config vary_problem_size") != 0;
    config.profile.vary_boundary =
        util::read_int(payload, "config vary_boundary") != 0;
    if (config.profile.dims != 2 && config.profile.dims != 3) {
      throw std::runtime_error("load_model: config dims out of range");
    }
    if (config.profile.max_order < 1 ||
        config.profile.max_order > stencil::kMaxOrder) {
      throw std::runtime_error("load_model: config max_order out of range");
    }
    util::expect_word(payload, "regconfig", "load_model regression config");
    RegressionConfig& r = config.regression;
    r.folds = util::read_int(payload, "regconfig folds");
    r.epochs = util::read_int(payload, "regconfig epochs");
    r.batch_size = util::read_int(payload, "regconfig batch_size");
    r.learning_rate = util::read_f64(payload, "regconfig learning_rate");
    r.mlp_hidden_layers = util::read_int(payload, "regconfig mlp_hidden_layers");
    r.mlp_width = util::read_size(payload, "regconfig mlp_width");
    r.instance_cap = util::read_size(payload, "regconfig instance_cap");
    r.seed = util::read_u64(payload, "regconfig seed");
    util::expect_word(payload, "regressor", "load_model regressor section");
    config.regressor =
        regressor_kind_from_string(util::read_token(payload, "regressor kind"));
    config.tuning_samples = util::read_int(payload, "regressor tuning_samples");

    StencilMart mart(config);
    // Serving needs no profiled stencils: classification, tuning and variant
    // prediction only read the config geometry, the static OC table and the
    // GPU table, so the loaded mart carries a zero-stencil dataset.
    ProfileDataset serving;
    serving.config = config.profile;
    serving.problem = gpusim::ProblemSize::paper_default(config.profile.dims);
    serving.gpus = gpusim::evaluation_gpus();
    mart.dataset_ = std::make_unique<ProfileDataset>(std::move(serving));

    mart.merger_ = OcMerger::load(payload);
    if (mart.merger_.groups().size() != ProfileDataset::num_ocs()) {
      throw std::runtime_error(
          "load_model: OC count does not match this build's OC table");
    }
    util::expect_word(payload, "classifiers", "load_model classifier section");
    const std::size_t num_classifiers =
        util::read_size(payload, "classifier count");
    if (num_classifiers != mart.dataset_->gpus.size()) {
      throw std::runtime_error(
          "load_model: classifier count does not match the GPU table");
    }
    mart.regression_ =
        std::make_unique<RegressionTask>(*mart.dataset_, config.regression);
    const std::size_t stencil_width =
        mart.regression_->encoding_cache().stencil_dim();
    mart.classifiers_.clear();
    mart.classifiers_.reserve(num_classifiers);
    for (std::size_t g = 0; g < num_classifiers; ++g) {
      mart.classifiers_.push_back(ml::GbdtClassifier::load(payload));
      if (mart.classifiers_.back().num_classes() != mart.merger_.num_groups()) {
        throw std::runtime_error(
            "load_model: classifier class count does not match the OC grouping");
      }
      // Classifiers read the Table II feature row; a split past its end
      // would read out of bounds on every advise that reaches it.
      const std::size_t span = mart.classifiers_.back().feature_span();
      if (span > stencil_width) {
        throw std::runtime_error(
            "load_model: classifier " + std::to_string(g) +
            " splits on feature " + std::to_string(span - 1) + " of a " +
            std::to_string(stencil_width) + "-wide stencil feature row");
      }
    }
    mart.regression_->load_fitted(payload);
    std::string extra;
    if (payload >> extra) {
      throw std::runtime_error(
          "load_model: trailing data after the regression section");
    }
    mart.trained_ = true;
    return mart;
  } catch (const std::exception& e) {
    // Pinpoint where inside the (checksum-valid) payload parsing stopped:
    // with the envelope intact, a parse failure here means a format skew
    // between writer and reader, and the byte offset locates the section.
    payload.clear();
    const auto pos = payload.tellg();
    const std::size_t offset =
        pos < 0 ? bytes.size() : static_cast<std::size_t>(pos);
    throw std::runtime_error(source + ": payload byte offset " +
                             std::to_string(offset) + ": " + e.what());
  }
}

StencilMart load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return load_model(in, path);
}

ModelArtifactInfo inspect_model(std::istream& in) {
  std::string magic;
  if (!std::getline(in, magic)) {
    throw std::runtime_error("load_model: empty stream");
  }
  if (magic != kModelMagic) {
    if (magic.rfind(kModelMagicPrefix, 0) == 0) {
      throw std::runtime_error("load_model: unsupported model format version '" +
                               magic + "' (this build reads " +
                               std::string(kModelMagic) + ")");
    }
    throw std::runtime_error(
        "load_model: not a StencilMART model artifact (bad magic)");
  }
  util::expect_word(in, "payload", "load_model payload header");
  const std::size_t payload_size =
      util::read_size(in, "load_model payload size");
  if (in.get() != '\n') {
    throw std::runtime_error("load_model: malformed payload header");
  }
  std::string bytes(payload_size, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<std::size_t>(in.gcount()) != payload_size) {
    throw std::runtime_error(
        "load_model: truncated artifact (payload cut short)");
  }
  util::expect_word(in, "checksum", "load_model checksum header");
  const std::string digest = util::read_token(in, "load_model checksum");
  if (digest != checksum_hex(bytes)) {
    throw std::runtime_error(
        "load_model: checksum mismatch — the artifact is corrupted");
  }
  return ModelArtifactInfo{magic, digest};
}

ModelArtifactInfo inspect_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  return inspect_model(in);
}

}  // namespace smart::core
