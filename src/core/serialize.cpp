#include "core/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
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

void encode_offsets(util::TokenWriter& out,
                    const stencil::StencilPattern& pattern) {
  bool first = true;
  for (const stencil::Point& p : pattern.offsets()) {
    if (!first) out << ';';
    first = false;
    out << static_cast<int>(p[0]) << ':' << static_cast<int>(p[1]) << ':'
        << static_cast<int>(p[2]);
  }
}

stencil::StencilPattern decode_offsets(int dims, std::string_view text) {
  std::vector<stencil::Point> points;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = std::min(text.find(';', begin), text.size());
    const std::string_view token = text.substr(begin, end - begin);
    begin = end + 1;
    // x:y:z, each a whole decimal int.
    int xyz[3] = {0, 0, 0};
    const char* p = token.data();
    const char* const last = p + token.size();
    bool ok = true;
    for (int axis = 0; axis < 3 && ok; ++axis) {
      const auto [next, ec] = std::from_chars(p, last, xyz[axis]);
      const bool separator = axis < 2;
      ok = ec == std::errc{} &&
           (separator ? next != last && *next == ':' : next == last);
      p = ok && separator ? next + 1 : next;
    }
    if (!ok) {
      throw std::runtime_error("load_dataset: bad offset token '" +
                               std::string(token) + "'");
    }
    // A Point stores int8 coordinates: bound them before they can wrap.
    if (std::max({std::abs(xyz[0]), std::abs(xyz[1]), std::abs(xyz[2])}) >
        stencil::kMaxOrder) {
      throw std::runtime_error(
          "load_dataset: offset coordinate out of range in '" +
          std::string(token) + "'");
    }
    points.push_back(stencil::Point{xyz[0], xyz[1], xyz[2]});
  }
  return stencil::StencilPattern(dims, std::move(points));
}

void encode_setting(util::TokenWriter& out, const gpusim::ParamSetting& s) {
  out << s.block_x << ' ' << s.block_y << ' ' << s.merge_factor << ' '
      << s.merge_dim << ' ' << s.unroll << ' ' << s.stream_tile << ' '
      << s.stream_dim << ' ' << (s.use_smem ? 1 : 0) << ' ' << s.tb_depth;
}

bool decode_setting(util::TokenReader& in, gpusim::ParamSetting& s) {
  int use_smem = 0;
  const bool ok = in.next(s.block_x) && in.next(s.block_y) &&
                  in.next(s.merge_factor) && in.next(s.merge_dim) &&
                  in.next(s.unroll) && in.next(s.stream_tile) &&
                  in.next(s.stream_dim) && in.next(use_smem) &&
                  in.next(s.tb_depth);
  s.use_smem = use_smem != 0;
  return ok;
}

/// Parse-error context for the corpus reader: every failure names the
/// source and 1-based line, e.g. "corpus.txt:1042: unparsable time field".
class DatasetParseContext {
 public:
  DatasetParseContext(std::string source, const util::TokenReader& lines)
      : source_(std::move(source)), lines_(lines) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(source_ + ":" + std::to_string(lines_.line()) +
                             ": " + what);
  }
  void expect(bool condition, const char* what) const {
    if (!condition) fail(what);
  }

 private:
  std::string source_;
  const util::TokenReader& lines_;
};

std::string format_dataset(const ProfileDataset& ds) {
  const util::PhaseTimer timer("serialize.save_corpus");
  std::size_t num_times = 0;
  for (const auto& per_gpu : ds.times) {
    for (const auto& per_oc : per_gpu) {
      for (const auto& ts : per_oc) num_times += ts.size();
    }
  }
  util::TokenWriter out;
  out.reserve(40 * num_times + 4096);  // time records dominate: ~36 bytes
  out << kMagic << '\n';
  out << ds.config.dims << ' ' << ds.config.max_order << ' '
      << ds.stencils.size() << ' ' << ds.config.samples_per_oc << ' '
      << ds.config.seed << ' ';
  out.general17(ds.config.sim.noise_sigma);
  out << ' ' << (ds.config.vary_problem_size ? 1 : 0) << ' '
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
        << (prob.boundary == stencil::Boundary::kPeriodic ? 1 : 0) << ' ';
    encode_offsets(out, ds.stencils[s]);
    out << '\n';
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
            out.hex(ts[k]);
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
  return out.take();
}

ProfileDataset parse_dataset(std::string_view text, const std::string& source) {
  const util::PhaseTimer timer("serialize.load_corpus");
  util::TokenReader lines(text);
  const DatasetParseContext ctx(source, lines);
  std::string_view line;

  ctx.expect(lines.next_line(line), "empty corpus file");
  if (line != kMagic) {
    ctx.fail("not a StencilMART corpus (bad magic '" + std::string(line) +
             "')");
  }

  ProfileDataset ds;
  std::size_t num_stencils = 0;
  {
    ctx.expect(lines.next_line(line), "missing header");
    util::TokenReader header(line);
    int vary_size = 0;
    int vary_boundary = 0;
    ctx.expect(header.next(ds.config.dims) && header.next(ds.config.max_order) &&
                   header.next(num_stencils) &&
                   header.next(ds.config.samples_per_oc) &&
                   header.next(ds.config.seed) &&
                   header.next(ds.config.sim.noise_sigma) &&
                   header.next(vary_size) && header.next(vary_boundary),
               "unparsable header");
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

  while (lines.next_line(line)) {
    if (line.empty()) continue;
    util::TokenReader record(line);
    const std::string_view tag = record.next_token();
    if (tag == "shard") {
      ctx.expect(!ds.shard.sharded(), "duplicate shard header");
      ctx.expect(record.next(ds.shard.index) && record.next(ds.shard.count) &&
                     record.next(ds.shard_retries),
                 "unparsable shard header");
      const std::string_view spec = record.next_token();
      ctx.expect(!spec.empty() && record.at_end(), "unparsable shard header");
      ctx.expect(ds.shard.count >= 2 && ds.shard.index < ds.shard.count,
                 "shard header out of range (want 0 <= i < N, N >= 2)");
      ctx.expect(ds.shard_retries >= 0, "negative shard retry budget");
      ds.shard_fault_spec = spec == "-" ? std::string{} : std::string(spec);
    } else if (tag == "stencil") {
      gpusim::ProblemSize prob;
      int periodic = 0;
      ctx.expect(record.next(prob.nx) && record.next(prob.ny) &&
                     record.next(prob.nz) && record.next(periodic),
                 "unparsable stencil record");
      const std::string_view offsets = record.next_token();
      ctx.expect(!offsets.empty() && record.at_end(),
                 "unparsable stencil record");
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
      ctx.expect(record.next(s) && record.next(oc),
                 "unparsable setting indices");
      ctx.expect(s < ds.stencils.size() && oc < num_ocs,
                 "setting index out of range");
      gpusim::ParamSetting setting;
      ctx.expect(decode_setting(record, setting) && record.at_end(),
                 "unparsable setting record");
      ds.settings[s][oc].push_back(setting);
    } else if (tag == "time") {
      std::size_t s = 0;
      std::size_t g = 0;
      std::size_t oc = 0;
      std::size_t k = 0;
      ctx.expect(record.next(s) && record.next(g) && record.next(oc) &&
                     record.next(k),
                 "unparsable time record");
      const std::string_view value = record.next_token();
      ctx.expect(!value.empty() && record.at_end(), "unparsable time record");
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
        if (!util::parse_f64_strict(value, time_ms)) {
          ctx.fail("unparsable time field '" + std::string(value) + "'");
        }
        if (!std::isfinite(time_ms) || time_ms <= 0.0) {
          ctx.fail("non-finite or non-positive time field '" +
                   std::string(value) + "'");
        }
        ts.push_back(time_ms);
      }
    } else if (tag == "quar") {
      QuarantineRecord q;
      ctx.expect(record.next(q.stencil) && record.next(q.oc) &&
                     record.next(q.gpu),
                 "unparsable quarantine record");
      ctx.expect(q.stencil < ds.stencils.size() && q.gpu < ds.gpus.size() &&
                     q.oc < num_ocs,
                 "quarantine index out of range");
      std::string_view reason = record.rest();
      if (!reason.empty() && reason.front() == ' ') reason.remove_prefix(1);
      q.reason = reason;
      ds.quarantined.push_back(std::move(q));
    } else {
      ctx.fail("unknown tag '" + std::string(tag) + "'");
    }
  }
  if (ds.stencils.size() != num_stencils) {
    ctx.fail("stencil count mismatch (header says " +
             std::to_string(num_stencils) + ", file has " +
             std::to_string(ds.stencils.size()) + ")");
  }
  return ds;
}

/// The validated model-artifact envelope: version line, payload bytes (a
/// view into the artifact text) and the payload's checksum.
struct Envelope {
  std::string_view version;
  std::string_view payload;
  std::string checksum;
};

/// Reads magic, payload byte count, payload and checksum, and verifies the
/// checksum. Each failure mode raises its own diagnostic.
Envelope read_envelope(std::string_view text) {
  util::TokenReader in(text);
  Envelope env;
  if (!in.next_line(env.version)) {
    throw std::runtime_error("load_model: empty stream");
  }
  if (env.version != kModelMagic) {
    if (env.version.rfind(kModelMagicPrefix, 0) == 0) {
      throw std::runtime_error("load_model: unsupported model format version '" +
                               std::string(env.version) + "' (this build reads " +
                               std::string(kModelMagic) + ")");
    }
    throw std::runtime_error(
        "load_model: not a StencilMART model artifact (bad magic)");
  }
  in.expect_word("payload", "load_model payload header");
  const std::size_t payload_size = in.read_size("load_model payload size");
  const std::size_t begin = in.offset() + 1;
  if (begin > text.size() || text[begin - 1] != '\n') {
    throw std::runtime_error("load_model: malformed payload header");
  }
  if (payload_size > text.size() - begin) {
    throw std::runtime_error(
        "load_model: truncated artifact (payload cut short)");
  }
  env.payload = text.substr(begin, payload_size);
  util::TokenReader trailer(text.substr(begin + payload_size));
  trailer.expect_word("checksum", "load_model checksum header");
  const std::string_view digest = trailer.token("load_model checksum");
  env.checksum = checksum_hex(env.payload);
  if (digest != env.checksum) {
    throw std::runtime_error(
        "load_model: checksum mismatch — the artifact is corrupted");
  }
  return env;
}

}  // namespace

/// Model-artifact payload (de)serialization; a friend of StencilMart, which
/// it assembles and injects directly.
struct ModelCodec {
  static std::string format(const StencilMart& mart);
  static StencilMart parse(std::string_view bytes, const std::string& source);
};

void save_dataset(const ProfileDataset& ds, std::ostream& out) {
  out << format_dataset(ds);
  if (!out) throw std::runtime_error("save_dataset: stream write failed");
}

void save_dataset(const ProfileDataset& dataset, const std::string& path) {
  const std::string text = format_dataset(dataset);
  util::atomic_write(path, [&text](std::ostream& out) { out << text; });
}

ProfileDataset load_dataset(std::istream& in, const std::string& source) {
  return parse_dataset(util::read_all(in), source);
}

ProfileDataset load_dataset(const std::string& path) {
  std::string text;
  if (!util::read_file(path, text)) {
    throw std::runtime_error("load_dataset: cannot open " + path);
  }
  return parse_dataset(text, path);
}

// ----- model artifacts -------------------------------------------------------

std::string ModelCodec::format(const StencilMart& mart) {
  if (!mart.trained()) {
    throw std::logic_error("save_model: StencilMart is not trained");
  }
  util::TokenWriter payload;
  const MartConfig& c = mart.config_;
  payload << "config " << c.profile.dims << ' ' << c.profile.max_order << ' '
          << c.profile.num_stencils << ' ' << c.profile.samples_per_oc << ' '
          << c.profile.seed << ' ';
  payload.hex(c.profile.sim.noise_sigma);
  payload << ' ' << c.profile.sim.seed << ' '
          << (c.profile.vary_problem_size ? 1 : 0) << ' '
          << (c.profile.vary_boundary ? 1 : 0) << '\n';
  const RegressionConfig& r = c.regression;
  payload << "regconfig " << r.folds << ' ' << r.epochs << ' ' << r.batch_size
          << ' ';
  payload.hex(r.learning_rate);
  payload << ' ' << r.mlp_hidden_layers << ' ' << r.mlp_width << ' '
          << r.instance_cap << ' ' << r.seed << '\n';
  payload << "regressor " << to_string(c.regressor) << ' ' << c.tuning_samples
          << '\n';
  mart.merger_.save(payload);
  payload << "classifiers " << mart.classifiers_.size() << '\n';
  for (const auto& clf : mart.classifiers_) clf.save(payload);
  mart.regression_->save_fitted(payload);

  const std::string& bytes = payload.str();
  util::TokenWriter artifact;
  artifact << kModelMagic << '\n' << "payload " << bytes.size() << '\n'
           << bytes << "checksum " << checksum_hex(bytes) << '\n';
  return artifact.take();
}

StencilMart ModelCodec::parse(std::string_view bytes, const std::string& source) {
  util::TokenReader payload(bytes);
  try {
    MartConfig config;
    payload.expect_word("config", "load_model config section");
    config.profile.dims = payload.read_int("config dims");
    config.profile.max_order = payload.read_int("config max_order");
    config.profile.num_stencils = payload.read_int("config num_stencils");
    config.profile.samples_per_oc = payload.read_int("config samples_per_oc");
    config.profile.seed = payload.read_u64("config seed");
    config.profile.sim.noise_sigma = payload.read_f64("config noise_sigma");
    config.profile.sim.seed = payload.read_u64("config sim seed");
    config.profile.vary_problem_size =
        payload.read_int("config vary_problem_size") != 0;
    config.profile.vary_boundary = payload.read_int("config vary_boundary") != 0;
    if (config.profile.dims != 2 && config.profile.dims != 3) {
      throw std::runtime_error("load_model: config dims out of range");
    }
    if (config.profile.max_order < 1 ||
        config.profile.max_order > stencil::kMaxOrder) {
      throw std::runtime_error("load_model: config max_order out of range");
    }
    payload.expect_word("regconfig", "load_model regression config");
    RegressionConfig& r = config.regression;
    r.folds = payload.read_int("regconfig folds");
    r.epochs = payload.read_int("regconfig epochs");
    r.batch_size = payload.read_int("regconfig batch_size");
    r.learning_rate = payload.read_f64("regconfig learning_rate");
    r.mlp_hidden_layers = payload.read_int("regconfig mlp_hidden_layers");
    r.mlp_width = payload.read_size("regconfig mlp_width");
    r.instance_cap = payload.read_size("regconfig instance_cap");
    r.seed = payload.read_u64("regconfig seed");
    payload.expect_word("regressor", "load_model regressor section");
    config.regressor = regressor_kind_from_string(
        std::string(payload.token("regressor kind")));
    config.tuning_samples = payload.read_int("regressor tuning_samples");

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
    payload.expect_word("classifiers", "load_model classifier section");
    const std::size_t num_classifiers = payload.read_size("classifier count");
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
    if (!payload.at_end()) {
      payload.next_token();
      throw std::runtime_error(
          "load_model: trailing data after the regression section");
    }
    mart.trained_ = true;
    return mart;
  } catch (const std::exception& e) {
    // Pinpoint where inside the (checksum-valid) payload parsing stopped:
    // with the envelope intact, a parse failure here means a format skew
    // between writer and reader, and the byte offset locates the section.
    throw std::runtime_error(source + ": payload byte offset " +
                             std::to_string(payload.offset()) + ": " + e.what());
  }
}

void save_model(const StencilMart& mart, std::ostream& out) {
  const util::PhaseTimer timer("serialize.save");
  out << ModelCodec::format(mart);
  if (!out) throw std::runtime_error("save_model: stream write failed");
}

void save_model(const StencilMart& mart, const std::string& path) {
  const util::PhaseTimer timer("serialize.save");
  const std::string text = ModelCodec::format(mart);
  util::atomic_write(path, [&text](std::ostream& out) { out << text; });
}

namespace {

std::string read_artifact(const std::string& path) {
  std::string text;
  if (!util::read_file(path, text)) {
    throw std::runtime_error("load_model: cannot open " + path);
  }
  return text;
}

ModelArtifactInfo artifact_info(const Envelope& env) {
  return ModelArtifactInfo{std::string(env.version), env.checksum};
}

LoadedModel parse_artifact(std::string_view text, const std::string& source) {
  const util::PhaseTimer timer("serialize.load");
  const Envelope env = read_envelope(text);
  return LoadedModel{ModelCodec::parse(env.payload, source), artifact_info(env)};
}

}  // namespace

LoadedModel load_model_artifact(const std::string& path) {
  return parse_artifact(read_artifact(path), path);
}

StencilMart load_model(std::istream& in, const std::string& source) {
  return std::move(parse_artifact(util::read_all(in), source).mart);
}

StencilMart load_model(const std::string& path) {
  return std::move(load_model_artifact(path).mart);
}

ModelArtifactInfo inspect_model(std::istream& in) {
  return artifact_info(read_envelope(util::read_all(in)));
}

ModelArtifactInfo inspect_model(const std::string& path) {
  return artifact_info(read_envelope(read_artifact(path)));
}

}  // namespace smart::core
