#include "core/serve_protocol.hpp"

#include <stdexcept>
#include <vector>

#include "util/serialize_io.hpp"

namespace smart::core::serve {

namespace {

/// The id grammar: 1..kMaxIdBytes characters of [A-Za-z0-9_.:-].
bool valid_id(std::string_view id) {
  if (id.empty() || id.size() > kMaxIdBytes) return false;
  for (const char c : id) {
    if (!((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
          c == '-')) {
      return false;
    }
  }
  return true;
}

bool valid_gpu_char(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

ParseResult fail(std::string id, std::string error) {
  ParseResult r;
  r.ok = false;
  r.id = std::move(id);
  r.error = std::move(error);
  return r;
}

/// Parses "x,y" / "x,y,z" tuples separated by ';' into Points. All tuples
/// must share one arity (the dimensionality); coordinates are bounded by
/// the paper's maximum stencil order so a Point's int8 storage cannot wrap.
bool parse_offsets(const std::string& value, int& dims,
                   std::vector<stencil::Point>& points, std::string& error) {
  constexpr int kMaxCoord = stencil::kMaxOrder;
  constexpr std::size_t kMaxPoints = 1024;
  dims = 0;
  std::size_t i = 0;
  while (i <= value.size()) {
    const std::size_t end = std::min(value.find(';', i), value.size());
    const std::string tuple = value.substr(i, end - i);
    if (tuple.empty()) {
      error = "offsets: empty tuple";
      return false;
    }
    std::vector<int> coords;
    std::size_t j = 0;
    while (j <= tuple.size()) {
      const std::size_t comma = std::min(tuple.find(',', j), tuple.size());
      long long coord = 0;
      if (!util::parse_i64_strict(tuple.substr(j, comma - j), coord) ||
          coord < -kMaxCoord || coord > kMaxCoord) {
        error = "offsets: bad coordinate '" + tuple.substr(j, comma - j) +
                "' (integer in [-4, 4])";
        return false;
      }
      coords.push_back(static_cast<int>(coord));
      j = comma + 1;
      if (comma == tuple.size()) break;
    }
    if (coords.size() != 2 && coords.size() != 3) {
      error = "offsets: tuples must have 2 or 3 coordinates";
      return false;
    }
    if (dims == 0) {
      dims = static_cast<int>(coords.size());
    } else if (dims != static_cast<int>(coords.size())) {
      error = "offsets: mixed tuple arities";
      return false;
    }
    points.push_back(dims == 2 ? stencil::Point(coords[0], coords[1])
                               : stencil::Point(coords[0], coords[1], coords[2]));
    if (points.size() > kMaxPoints) {
      error = "offsets: too many points (max 1024)";
      return false;
    }
    i = end + 1;
    if (end == value.size()) break;
  }
  if (points.empty()) {
    error = "offsets: empty list";
    return false;
  }
  return true;
}

}  // namespace

std::string to_string(Verb verb) {
  switch (verb) {
    case Verb::kAdvise: return "advise";
    case Verb::kPredict: return "predict";
    case Verb::kStats: return "stats";
    case Verb::kPing: return "ping";
    case Verb::kHealthz: return "healthz";
    case Verb::kReload: return "reload";
    case Verb::kShutdown: return "shutdown";
  }
  return "?";
}

bool is_blank(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

std::string request_id(std::string_view line) {
  const auto tokens = split_tokens(line);
  return tokens.size() >= 2 && valid_id(tokens[1]) ? tokens[1] : "-";
}

ParseResult parse_request(std::string_view line) {
  if (line.size() > kMaxRequestBytes) {
    return fail("-", "oversize request line (max " +
                         std::to_string(kMaxRequestBytes) + " bytes)");
  }
  for (const char c : line) {
    if (c < 0x20 || c > 0x7e) {
      return fail("-", "request contains non-printable bytes");
    }
  }
  const auto tokens = split_tokens(line);
  if (tokens.empty()) return fail("-", "empty request");

  Verb verb;
  if (tokens[0] == "advise") verb = Verb::kAdvise;
  else if (tokens[0] == "predict") verb = Verb::kPredict;
  else if (tokens[0] == "stats") verb = Verb::kStats;
  else if (tokens[0] == "ping") verb = Verb::kPing;
  else if (tokens[0] == "healthz") verb = Verb::kHealthz;
  else if (tokens[0] == "reload") verb = Verb::kReload;
  else if (tokens[0] == "shutdown") verb = Verb::kShutdown;
  else return fail("-", "unknown verb '" + tokens[0] +
                        "' (advise|predict|stats|ping|healthz|reload|shutdown)");

  if (tokens.size() < 2) return fail("-", "missing request id");
  const std::string& id = tokens[1];
  if (id.size() > kMaxIdBytes) return fail("-", "request id too long (max 64)");
  if (!valid_id(id)) {
    return fail("-", "request id has invalid characters ([A-Za-z0-9_.:-])");
  }

  const bool takes_keys = verb == Verb::kAdvise || verb == Verb::kPredict;
  if (!takes_keys && tokens.size() > 2) {
    return fail(id, to_string(verb) + " takes no arguments");
  }

  // key=value options (advise/predict only).
  std::string shape, gpu = "V100", offsets;
  long long dims = 2, order = 2;
  bool saw_shape = false, saw_dims = false, saw_order = false,
       saw_gpu = false, saw_offsets = false;
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    const std::string& tok = tokens[t];
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail(id, "expected key=value, got '" + tok + "'");
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (value.empty()) return fail(id, "option '" + key + "' has no value");
    bool* seen = nullptr;
    if (key == "shape") { seen = &saw_shape; shape = value; }
    else if (key == "dims") {
      seen = &saw_dims;
      if (!util::parse_i64_strict(value, dims) || (dims != 2 && dims != 3)) {
        return fail(id, "dims must be 2 or 3");
      }
    } else if (key == "order") {
      seen = &saw_order;
      if (!util::parse_i64_strict(value, order) || order < 1 || order > 4) {
        return fail(id, "order must be an integer in [1, 4]");
      }
    } else if (key == "gpu") {
      seen = &saw_gpu;
      gpu = value;
      if (gpu.size() > 32) return fail(id, "gpu name too long (max 32)");
      for (const char c : gpu) {
        if (!valid_gpu_char(c)) {
          return fail(id, "gpu name has invalid characters ([A-Za-z0-9_-])");
        }
      }
    } else if (key == "offsets") {
      seen = &saw_offsets;
      offsets = value;
    } else {
      return fail(id, "unknown option '" + key +
                      "' (shape|dims|order|gpu|offsets)");
    }
    if (*seen) return fail(id, "duplicate option '" + key + "'");
    *seen = true;
  }
  if (saw_offsets && (saw_shape || saw_dims || saw_order)) {
    return fail(id, "offsets= excludes shape=/dims=/order=");
  }

  ParseResult result;
  result.id = id;
  result.request.verb = verb;
  result.request.id = id;
  if (takes_keys) {
    result.request.gpu = gpu;
    try {
      if (saw_offsets) {
        int odims = 0;
        std::vector<stencil::Point> points;
        std::string error;
        if (!parse_offsets(offsets, odims, points, error)) {
          return fail(id, error);
        }
        result.request.pattern = stencil::StencilPattern(odims, std::move(points));
      } else {
        if (shape.empty()) shape = "star";
        const int d = static_cast<int>(dims);
        const int r = static_cast<int>(order);
        if (shape == "star") result.request.pattern = stencil::make_star(d, r);
        else if (shape == "box") result.request.pattern = stencil::make_box(d, r);
        else if (shape == "cross") result.request.pattern = stencil::make_cross(d, r);
        else return fail(id, "unknown shape '" + shape + "' (star|box|cross)");
      }
    } catch (const std::exception& e) {
      return fail(id, std::string("invalid stencil: ") + e.what());
    }
    // Canonical identity: the constructed pattern sorts and dedups its
    // offsets, so equivalent spellings produce equal keys.
    std::string key = to_string(verb);
    key += '|';
    key += gpu;
    key += '|';
    key += std::to_string(result.request.pattern.dims());
    for (const auto& p : result.request.pattern.offsets()) {
      key += '|';
      for (int a = 0; a < result.request.pattern.dims(); ++a) {
        key += std::to_string(p[a]);
        key += ',';
      }
    }
    result.request.memo_key = std::move(key);
  }
  result.ok = true;
  return result;
}

std::string escape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

std::string unescape_text(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      if (text[i + 1] == 'n') { out += '\n'; ++i; continue; }
      if (text[i + 1] == '\\') { out += '\\'; ++i; continue; }
    }
    out += text[i];
  }
  return out;
}

std::string ok_reply(const std::string& id, const std::string& payload) {
  return "ok " + id + ' ' + payload;
}

std::string err_reply(const std::string& id, const std::string& message) {
  std::string flat = message;
  for (char& c : flat) {
    if (c < 0x20 || c > 0x7e) c = ' ';
  }
  return "err " + (id.empty() ? "-" : id) + ' ' + flat;
}

}  // namespace smart::core::serve
