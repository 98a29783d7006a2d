#include "util/serialize_io.hpp"

#include <sys/stat.h>

#include <bit>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <istream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace smart::util {

namespace {

bool is_space(char c) noexcept {
  // Every C-locale space is <= ' ': one compare settles token characters.
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && (u == ' ' || (u >= '\t' && u <= '\r'));
}

// Number parsers over [first, last): each returns one past what it read,
// or nullptr when no number starts at `first`; `out` is written only on
// success. The caller decides where the number had to end.
const char* parse_i64_at(const char* first, const char* last,
                         long long& out) noexcept {
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} ? ptr : nullptr;
}

const char* parse_u64_at(const char* first, const char* last,
                         std::uint64_t& out) noexcept {
  // from_chars takes no sign for an unsigned type, so "-1" cannot wrap.
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} ? ptr : nullptr;
}

const char* parse_f64_at(const char* first, const char* last,
                         double& out) noexcept {
  const bool negative = first != last && *first == '-';
  const char* const body = first + (negative ? 1 : 0);
  if (last - body >= 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    // from_chars(hex) takes neither the prefix nor (after it) a sign.
    const char* const digits = body + 2;
    if (digits == last || *digits == '-') return nullptr;
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(digits, last, value, std::chars_format::hex);
    if (ec != std::errc{}) return nullptr;
    out = negative ? -value : value;
    return ptr;
  }
  const auto [ptr, ec] =
      std::from_chars(first, last, out, std::chars_format::general);
  return ec == std::errc{} ? ptr : nullptr;
}

template <class T>
bool parse_whole(std::string_view token, T& out,
                 const char* (*parse)(const char*, const char*, T&) noexcept) noexcept {
  const char* const end = token.data() + token.size();
  T value{};
  const char* const ptr = parse(token.data(), end, value);
  if (ptr == nullptr || ptr != end) return false;
  out = value;
  return true;
}

[[noreturn]] void fail(std::string_view what, std::string_view why) {
  std::string message(what);
  message += ": ";
  message += why;
  throw std::runtime_error(message);
}

[[noreturn]] void fail_token(std::string_view what, std::string_view why,
                             std::string_view token) {
  std::string message(why);
  message += " '";
  message += token;
  message += '\'';
  fail(what, message);
}

}  // namespace

bool parse_f64_strict(std::string_view token, double& out) noexcept {
  return parse_whole(token, out, parse_f64_at);
}

bool parse_i64_strict(std::string_view token, long long& out) noexcept {
  return parse_whole(token, out, parse_i64_at);
}

bool parse_u64_strict(std::string_view token, std::uint64_t& out) noexcept {
  return parse_whole(token, out, parse_u64_at);
}

// ----- TokenReader -----------------------------------------------------------

// The scans work on locals: members written through `this` while chars
// are read would have to be reloaded on every byte (a char may alias them).
bool TokenReader::at_end() noexcept {
  const char* const data = text_.data();
  std::size_t pos = pos_;
  std::size_t line = cursor_line_;
  while (pos < text_.size() && is_space(data[pos])) {
    line += data[pos] == '\n' ? 1 : 0;
    ++pos;
  }
  pos_ = pos;
  cursor_line_ = line;
  return pos == text_.size();
}

std::string_view TokenReader::next_token() noexcept {
  const bool end = at_end();
  line_ = cursor_line_;
  if (end) return {};
  const char* const data = text_.data();
  const std::size_t begin = pos_;
  std::size_t pos = begin;
  while (pos < text_.size() && !is_space(data[pos])) ++pos;
  pos_ = pos;
  return {data + begin, pos - begin};
}

// Numbers parse straight from the cursor (one pass, no token scan first)
// and must end at whitespace or the end of input.
template <class T>
bool TokenReader::parse_next(
    T& out, const char* (*parse)(const char*, const char*, T&) noexcept) noexcept {
  const bool end = at_end();
  line_ = cursor_line_;
  if (end) return false;
  const char* const data = text_.data();
  const char* const last = data + text_.size();
  T value{};
  const char* const ptr = parse(data + pos_, last, value);
  if (ptr == nullptr || (ptr != last && !is_space(*ptr))) {
    next_token();  // consume the malformed token
    return false;
  }
  pos_ = static_cast<std::size_t>(ptr - data);
  out = value;
  return true;
}

bool TokenReader::next(long long& out) noexcept {
  return parse_next(out, parse_i64_at);
}

bool TokenReader::next(std::uint64_t& out) noexcept {
  return parse_next(out, parse_u64_at);
}

bool TokenReader::next(double& out) noexcept {
  return parse_next(out, parse_f64_at);
}

bool TokenReader::next_line(std::string_view& out) noexcept {
  line_ = cursor_line_;
  if (pos_ == text_.size()) return false;
  const std::size_t newline = text_.find('\n', pos_);
  const std::size_t end = newline == std::string_view::npos ? text_.size() : newline;
  out = text_.substr(pos_, end - pos_);
  pos_ = end;
  if (newline != std::string_view::npos) {
    ++pos_;
    ++cursor_line_;
  }
  return true;
}

std::string_view TokenReader::rest() noexcept {
  const std::string_view tail = text_.substr(pos_);
  pos_ = text_.size();
  return tail;
}

std::string_view TokenReader::token(std::string_view what) {
  const std::string_view tok = next_token();
  if (tok.empty()) fail(what, "unexpected end of input");
  return tok;
}

void TokenReader::expect_word(std::string_view word, std::string_view what) {
  const std::string_view tok = token(what);
  if (tok != word) {
    fail(what, "expected '" + std::string(word) + "', got '" +
                   std::string(tok) + "'");
  }
}

std::size_t TokenReader::token_start(std::string_view what) {
  if (at_end()) {
    line_ = cursor_line_;
    fail(what, "unexpected end of input");
  }
  return pos_;
}

long long TokenReader::read_i64(std::string_view what) {
  const std::size_t begin = token_start(what);
  long long value = 0;
  if (!next(value)) {
    fail_token(what, "bad integer", text_.substr(begin, pos_ - begin));
  }
  return value;
}

std::uint64_t TokenReader::read_u64(std::string_view what) {
  const std::size_t begin = token_start(what);
  std::uint64_t value = 0;
  if (!next(value)) {
    fail_token(what, "bad unsigned integer", text_.substr(begin, pos_ - begin));
  }
  return value;
}

int TokenReader::read_int(std::string_view what) {
  const long long value = read_i64(what);
  if (value < INT_MIN || value > INT_MAX) fail(what, "integer out of range");
  return static_cast<int>(value);
}

std::size_t TokenReader::read_size(std::string_view what) {
  const std::uint64_t value = read_u64(what);
  if (value > std::numeric_limits<std::size_t>::max()) {
    fail(what, "size out of range");
  }
  return static_cast<std::size_t>(value);
}

double TokenReader::read_f64(std::string_view what, bool require_finite) {
  const std::size_t begin = token_start(what);
  double value = 0.0;
  const bool ok = next(value);
  const std::string_view tok = text_.substr(begin, pos_ - begin);
  if (!ok) fail_token(what, "bad number", tok);
  if (require_finite && !std::isfinite(value)) {
    fail_token(what, "non-finite value", tok);
  }
  return value;
}

float TokenReader::read_f32(std::string_view what, bool require_finite) {
  return static_cast<float>(read_f64(what, require_finite));
}

// ----- TokenWriter -----------------------------------------------------------

TokenWriter& TokenWriter::hex(double v) {
  char buf[40];
  char* p = buf;
  if (!std::isfinite(v)) {
    p = std::to_chars(p, std::end(buf), v).ptr;  // "nan", "-inf", ...
  } else {
    if (std::signbit(v)) *p++ = '-';
    *p++ = '0';
    *p++ = 'x';
    const double magnitude = std::fabs(v);
    if (magnitude != 0.0 && magnitude < std::numeric_limits<double>::min()) {
      // %a spells a subnormal with a 0 lead digit and the minimum exponent,
      // where to_chars normalizes it: write glibc's form by hand.
      std::uint64_t mantissa =
          std::bit_cast<std::uint64_t>(magnitude) & ((std::uint64_t{1} << 52) - 1);
      int digits = 13;
      while ((mantissa & 0xf) == 0) {
        mantissa >>= 4;
        --digits;
      }
      *p++ = '0';
      *p++ = '.';
      for (int i = digits - 1; i >= 0; --i) {
        *p++ = "0123456789abcdef"[(mantissa >> (4 * i)) & 0xf];
      }
      for (const char c : {'p', '-', '1', '0', '2', '2'}) *p++ = c;
    } else {
      // Normal numbers and zero: to_chars(hex) spells the digits exactly as
      // %a does, without the sign and the 0x prefix written above.
      p = std::to_chars(p, std::end(buf), magnitude, std::chars_format::hex).ptr;
    }
  }
  buf_.append(buf, static_cast<std::size_t>(p - buf));
  return *this;
}

TokenWriter& TokenWriter::general17(double v) {
  char buf[40];
  const char* end =
      std::to_chars(buf, std::end(buf), v, std::chars_format::general, 17).ptr;
  buf_.append(buf, static_cast<std::size_t>(end - buf));
  return *this;
}

void TokenWriter::append_integer(long long v) {
  char buf[24];
  const char* end = std::to_chars(buf, std::end(buf), v).ptr;
  buf_.append(buf, static_cast<std::size_t>(end - buf));
}

void TokenWriter::append_integer(unsigned long long v) {
  char buf[24];
  const char* end = std::to_chars(buf, std::end(buf), v).ptr;
  buf_.append(buf, static_cast<std::size_t>(end - buf));
}

// ----- files -----------------------------------------------------------------

bool read_file(const std::string& path, std::string& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  // One read of a regular file's whole size; chunks for the rest (a file
  // that grew, a pipe). A directory opens but fails its first read.
  struct stat st {};
  const bool sized = ::fstat(::fileno(file), &st) == 0 && S_ISREG(st.st_mode);
  out.resize(sized ? static_cast<std::size_t>(st.st_size) : 0);
  out.resize(std::fread(out.data(), 1, out.size(), file));
  char chunk[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, file)) > 0) out.append(chunk, n);
  const int error = std::ferror(file) != 0 ? errno : 0;
  std::fclose(file);
  if (error != 0) {
    throw std::runtime_error("cannot read " + path + ": " + std::strerror(error));
  }
  return true;
}

std::string read_all(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace smart::util
