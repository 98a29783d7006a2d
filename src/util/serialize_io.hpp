// Strict token-level I/O shared by every (de)serializer in the tree: the
// dataset corpus format (core/serialize), the versioned model-artifact
// format (save_model/load_model) and the profiling journal all read
// whitespace-delimited tokens and must fail LOUDLY on malformed input — a
// half-parsed number silently becoming 0.0 turns file corruption into
// garbage predictions.
//
// Reading: TokenReader walks a std::string_view in place (no stream, no
// per-token allocation). Integers parse with std::from_chars; hexfloats
// parse with std::from_chars(chars_format::hex) after the sign and the
// 0x/0X prefix are stripped; decimal, "nan" and "inf" tokens parse with
// chars_format::general. Every parse must consume the WHOLE token, so "",
// "2x" and "1.0junk" fail. The reader tracks its byte offset and line
// number so errors keep their "payload byte offset N" and
// "<source>:<line>:" context.
//
// Writing: TokenWriter appends to one std::string with std::to_chars.
// Floating-point values are written as hexfloat tokens (sign and 0x prefix
// added by hand, byte-identical to printf's %a), so a save/load cycle
// reproduces every float and double to the bit.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace smart::util {

/// Whole-token double parse. Accepts hexfloat ([-]0x...), decimal, "nan"
/// and "inf" spellings (callers decide whether non-finite values are
/// legal); rejects a leading '+', overflow, and decimal underflow to 0.
/// `out` is untouched on failure.
bool parse_f64_strict(std::string_view token, double& out) noexcept;

/// Whole-token signed decimal integer parse with range checking.
bool parse_i64_strict(std::string_view token, long long& out) noexcept;

/// Whole-token unsigned decimal parse: digits only, so "-1" cannot wrap.
bool parse_u64_strict(std::string_view token, std::uint64_t& out) noexcept;

/// Reads a whitespace-delimited token stream in place. Whitespace is the C
/// locale's isspace set; '\n' advances the line count.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text) noexcept : text_(text) {}

  /// Byte offset of the cursor (just past the last token or line read).
  std::size_t offset() const noexcept { return pos_; }
  /// 1-based line of the last token or line read; after a read that found
  /// none, the line the input ends on.
  std::size_t line() const noexcept { return line_; }
  /// Bytes from the cursor to the end of the input: every element still to
  /// be read needs at least two of them (a separator and one character),
  /// which bounds any untrusted count before it sizes an allocation.
  std::size_t bytes_left() const noexcept { return text_.size() - pos_; }

  /// Skips whitespace; true when no token remains.
  bool at_end() noexcept;

  /// The next token, or an empty view at end of input.
  std::string_view next_token() noexcept;

  /// Parses the next token into `out`; false when it is missing or
  /// malformed (the token is consumed either way).
  bool next(long long& out) noexcept;
  bool next(std::uint64_t& out) noexcept;
  bool next(double& out) noexcept;
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, long long> &&
             !std::same_as<T, std::uint64_t>)
  bool next(T& out) noexcept;

  /// The next line (without its '\n'); false at end of input. A final line
  /// without a newline is still returned.
  bool next_line(std::string_view& out) noexcept;

  /// Everything from the cursor to the end of the input; consumes it.
  std::string_view rest() noexcept;

  // Throwing readers: "<what>: unexpected end of input", "<what>: bad
  // integer '<token>'", ... on failure.
  std::string_view token(std::string_view what);
  void expect_word(std::string_view word, std::string_view what);
  long long read_i64(std::string_view what);
  std::uint64_t read_u64(std::string_view what);
  int read_int(std::string_view what);
  std::size_t read_size(std::string_view what);
  /// With require_finite (the default for model weights) NaN and infinity
  /// throw — a NaN smuggled into a weight would silently poison every
  /// downstream prediction.
  double read_f64(std::string_view what, bool require_finite = true);
  /// Parses as double, then narrows: a float is written widened to double
  /// (exactly), so the narrowing is lossless.
  float read_f32(std::string_view what, bool require_finite = true);

 private:
  template <class T>
  bool parse_next(T& out, const char* (*parse)(const char*, const char*,
                                                 T&) noexcept) noexcept;
  /// Offset of the next token; throws "<what>: unexpected end of input".
  std::size_t token_start(std::string_view what);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t cursor_line_ = 1;  // line the cursor is on
  std::size_t line_ = 0;
};

template <std::integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, long long> &&
           !std::same_as<T, std::uint64_t>)
bool TokenReader::next(T& out) noexcept {
  using Wide = std::conditional_t<std::is_signed_v<T>, long long, std::uint64_t>;
  Wide value = 0;
  if (!next(value) || value < static_cast<Wide>(std::numeric_limits<T>::min()) ||
      value > static_cast<Wide>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// Appends tokens to one std::string. Integers and text stream in with
/// operator<<; floating point must say how it is spelled (hex() or
/// general17()), so there is no operator<< for it.
class TokenWriter {
 public:
  TokenWriter& operator<<(char c) {
    buf_.push_back(c);
    return *this;
  }
  TokenWriter& operator<<(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  TokenWriter& operator<<(const char* s) { return *this << std::string_view(s); }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  TokenWriter& operator<<(T v);
  TokenWriter& operator<<(bool) = delete;
  TokenWriter& operator<<(double) = delete;
  TokenWriter& operator<<(float) = delete;

  /// One hexfloat token, byte-identical to printf("%a", v). A float
  /// argument widens to double exactly, so its round trip is bit-identical.
  TokenWriter& hex(double v);
  /// One decimal token, byte-identical to printf("%.17g", v).
  TokenWriter& general17(double v);

  const std::string& str() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

 private:
  void append_integer(long long v);
  void append_integer(unsigned long long v);

  std::string buf_;
};

template <std::integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, char>)
TokenWriter& TokenWriter::operator<<(T v) {
  if constexpr (std::is_signed_v<T>) {
    append_integer(static_cast<long long>(v));
  } else {
    append_integer(static_cast<unsigned long long>(v));
  }
  return *this;
}

/// Reads the whole file at `path` into `out`; false when it cannot be
/// opened. Throws std::runtime_error when a read fails midway.
bool read_file(const std::string& path, std::string& out);
/// Everything left in `in`.
std::string read_all(std::istream& in);

/// FNV-1a 64-bit digest of a byte string (the model-artifact checksum).
std::uint64_t fnv1a64(std::string_view bytes) noexcept;

}  // namespace smart::util
