// Token grammar of util/serialize_io: the from_chars reader against the
// strtod/strtoll/strtoull parsers it replaced (kept here as the oracle),
// and the to_chars writer against printf's %a / %.17g.
//
//  - Every token a writer can emit parses to the same bits under both
//    parsers: ±0, subnormals, DBL_MAX, floats widened to double, nan/inf,
//    integer limits, and random bit patterns.
//  - Malformed tokens stay rejected by both.
//  - The few spellings the oracle accepted and the reader refuses (a
//    leading '+', underflow to 0, leading whitespace) are pinned, so the
//    difference stays deliberate.
//  - TokenReader keeps byte-offset and line context for error messages.
#include "util/serialize_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace smart::util {
namespace {

// ----- oracle: the strtod-family parsers the reader replaced ----------------

bool oracle_f64(const std::string& token, double& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  if (errno == ERANGE && std::isinf(value)) return false;  // overflowed
  out = value;
  return true;
}

bool oracle_i64(const std::string& token, long long& out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  if (errno == ERANGE) return false;
  out = value;
  return true;
}

bool oracle_u64(const std::string& token, std::uint64_t& out) {
  if (token.empty()) return false;
  for (char c : token) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  if (errno == ERANGE) return false;
  out = value;
  return true;
}

std::string printf_a(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string printf_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex_token(double v) {
  TokenWriter out;
  out.hex(v);
  return out.take();
}

std::string g17_token(double v) {
  TokenWriter out;
  out.general17(v);
  return out.take();
}

/// Doubles at the edges of the format, plus widened float edges.
std::vector<double> edge_values() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      0.03,
      1.0 / 3.0,
      DBL_MAX,
      -DBL_MAX,
      DBL_MIN,
      -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      std::bit_cast<double>(std::uint64_t{0x0008000000000000}),
      std::nextafter(1.0, 2.0),
      std::nextafter(1.0, 0.0),
      1e300,
      1e-300,
      inf,
      -inf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  for (const float f :
       {FLT_MAX, -FLT_MAX, FLT_MIN, std::numeric_limits<float>::denorm_min(),
        std::nextafter(FLT_MIN, 0.0f), 0.1f, -3.75f, 1e-30f}) {
    values.push_back(static_cast<double>(f));
  }
  return values;
}

/// Random doubles from random bit patterns (all exponents, both signs),
/// and random floats widened to double.
std::vector<double> random_values(std::size_t n) {
  Rng rng(20221121);
  std::vector<double> values;
  values.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(rng()))));
  }
  return values;
}

/// Same bits, except that any NaN matches any NaN of the same sign.
void expect_same_bits(double a, double b, const std::string& token) {
  if (std::isnan(a) || std::isnan(b)) {
    EXPECT_TRUE(std::isnan(a) && std::isnan(b)) << token;
    EXPECT_EQ(std::signbit(a), std::signbit(b)) << token;
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << token;
}

void expect_parses_like_oracle(const std::string& token) {
  double want = 0.0;
  double got = 0.0;
  ASSERT_TRUE(oracle_f64(token, want)) << token;
  ASSERT_TRUE(parse_f64_strict(token, got)) << token;
  expect_same_bits(got, want, token);
}

// ----- writer -----------------------------------------------------------------

TEST(TokenWriter, HexMatchesPrintfOnEdgeValues) {
  for (const double v : edge_values()) {
    EXPECT_EQ(hex_token(v), printf_a(v)) << printf_a(v);
  }
}

TEST(TokenWriter, HexMatchesPrintfOnRandomBitPatterns) {
  for (const double v : random_values(100000)) {
    ASSERT_EQ(hex_token(v), printf_a(v));
  }
}

TEST(TokenWriter, General17MatchesPrintf) {
  std::vector<double> values = edge_values();
  for (const double v : random_values(20000)) values.push_back(v);
  for (const double v : values) ASSERT_EQ(g17_token(v), printf_g17(v));
}

TEST(TokenWriter, IntegersAndTextStreamIn) {
  TokenWriter out;
  out << "tag" << ' ' << std::numeric_limits<long long>::min() << ' '
      << std::numeric_limits<std::uint64_t>::max() << ' ' << -1 << ' '
      << std::size_t{0} << ' ' << static_cast<unsigned short>(65535) << ' '
      << std::string("x") << '\n';
  EXPECT_EQ(out.str(),
            "tag -9223372036854775808 18446744073709551615 -1 0 65535 x\n");
}

// ----- reader against the oracle ----------------------------------------------

TEST(TokenGrammar, EveryWrittenFloatTokenParsesLikeTheOracle) {
  std::vector<double> values = edge_values();
  for (const double v : random_values(50000)) values.push_back(v);
  for (const double v : values) {
    expect_parses_like_oracle(hex_token(v));
    expect_parses_like_oracle(g17_token(v));
  }
  // The spellings a writer uses for non-finite values.
  for (const char* token : {"nan", "-nan", "inf", "-inf"}) {
    expect_parses_like_oracle(token);
  }
  // Hand-written hexfloats: uppercase prefix, no fraction, subnormal form.
  for (const char* token :
       {"0X1P+0", "0x1p3", "0x0p+0", "-0x0p+0", "0x0.0000000000001p-1022",
        "0x1.fffffffffffffp+1023", "0x1.8p-1"}) {
    expect_parses_like_oracle(token);
  }
}

TEST(TokenGrammar, IntegerLimitsParseLikeTheOracle) {
  for (const char* token : {"0", "-0", "7", "-7", "2147483647", "-2147483648",
                            "9223372036854775807", "-9223372036854775808"}) {
    long long want = 0;
    long long got = 0;
    ASSERT_TRUE(oracle_i64(token, want)) << token;
    ASSERT_TRUE(parse_i64_strict(token, got)) << token;
    EXPECT_EQ(got, want) << token;
  }
  for (const char* token : {"0", "1", "4294967296", "18446744073709551615"}) {
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    ASSERT_TRUE(oracle_u64(token, want)) << token;
    ASSERT_TRUE(parse_u64_strict(token, got)) << token;
    EXPECT_EQ(got, want) << token;
  }
}

TEST(TokenGrammar, MalformedTokensStayRejected) {
  for (const char* token :
       {"", "2x", "1.0junk", "0x", "-0x", "0x-1p0", "0xp0", "--1", "1e99999",
        "-1e99999", "0x1p99999", "nan0", "1,5", "0x1p", " ", "1 2"}) {
    double oracle = 0.0;
    double value = 0.0;
    EXPECT_FALSE(oracle_f64(token, oracle)) << "'" << token << "'";
    EXPECT_FALSE(parse_f64_strict(token, value)) << "'" << token << "'";
  }
  for (const char* token : {"", "2x", "1.5", "9223372036854775808",
                            "-9223372036854775809", "0x10", "1 "}) {
    long long oracle = 0;
    long long value = 0;
    EXPECT_FALSE(oracle_i64(token, oracle)) << "'" << token << "'";
    EXPECT_FALSE(parse_i64_strict(token, value)) << "'" << token << "'";
  }
  for (const char* token :
       {"", "-1", "+1", "18446744073709551616", "1x", " 1"}) {
    std::uint64_t oracle = 0;
    std::uint64_t value = 0;
    EXPECT_FALSE(oracle_u64(token, oracle)) << "'" << token << "'";
    EXPECT_FALSE(parse_u64_strict(token, value)) << "'" << token << "'";
  }
}

TEST(TokenGrammar, SpellingsOnlyTheOracleAccepted) {
  // No writer emits these; the reader refuses them where strtod/strtoll
  // took them. A failed parse leaves `out` untouched.
  for (const char* token :
       {"+1", "+0x1p+0", "1e-400", "-1e-400", "0x1p-99999", " 1"}) {
    double oracle = 0.0;
    double value = 42.0;
    EXPECT_TRUE(oracle_f64(token, oracle)) << token;
    EXPECT_FALSE(parse_f64_strict(token, value)) << token;
    EXPECT_EQ(value, 42.0);
  }
  for (const char* token : {"+5", " 5"}) {
    long long oracle = 0;
    long long value = 42;
    EXPECT_TRUE(oracle_i64(token, oracle)) << token;
    EXPECT_FALSE(parse_i64_strict(token, value)) << token;
    EXPECT_EQ(value, 42);
  }
}

// ----- TokenReader -------------------------------------------------------------

TEST(TokenReader, TracksOffsetAndLine) {
  TokenReader in("a bb\n\tc\n\n  d");
  EXPECT_EQ(in.next_token(), "a");
  EXPECT_EQ(in.line(), 1u);
  EXPECT_EQ(in.offset(), 1u);
  EXPECT_EQ(in.next_token(), "bb");
  EXPECT_EQ(in.line(), 1u);
  EXPECT_EQ(in.next_token(), "c");
  EXPECT_EQ(in.line(), 2u);
  EXPECT_EQ(in.next_token(), "d");
  EXPECT_EQ(in.line(), 4u);
  EXPECT_EQ(in.offset(), 12u);
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(in.next_token(), "");
  EXPECT_EQ(in.line(), 4u);
  EXPECT_EQ(in.bytes_left(), 0u);
}

TEST(TokenReader, LinesKeepTheirNumbersAndRest) {
  TokenReader in("first\n\nquar 1 2 3 some reason\nlast");
  std::string_view line;
  ASSERT_TRUE(in.next_line(line));
  EXPECT_EQ(line, "first");
  EXPECT_EQ(in.line(), 1u);
  ASSERT_TRUE(in.next_line(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(in.next_line(line));
  EXPECT_EQ(in.line(), 3u);
  TokenReader record(line);
  std::size_t a = 0;
  int b = 0;
  long long c = 0;
  EXPECT_EQ(record.next_token(), "quar");
  EXPECT_TRUE(record.next(a) && record.next(b) && record.next(c));
  EXPECT_EQ(record.rest(), " some reason");
  EXPECT_TRUE(record.at_end());
  ASSERT_TRUE(in.next_line(line));  // no trailing newline
  EXPECT_EQ(line, "last");
  EXPECT_EQ(in.line(), 4u);
  EXPECT_FALSE(in.next_line(line));

  // A failed read reports the line the input ends on: past a final
  // newline, the line after it.
  TokenReader empty("");
  EXPECT_FALSE(empty.next_line(line));
  EXPECT_EQ(empty.line(), 1u);
  TokenReader one("magic\n");
  ASSERT_TRUE(one.next_line(line));
  EXPECT_FALSE(one.next_line(line));
  EXPECT_EQ(one.line(), 2u);
}

TEST(TokenReader, NextRejectsOutOfRangeAndMalformed) {
  TokenReader in("300 -1 2147483648 x 0x1p+0 crash");
  unsigned char small = 0;
  std::size_t size = 0;
  int i = 0;
  long long ll = 0;
  double d = 0.0;
  EXPECT_FALSE(in.next(small));  // 300 > 255
  EXPECT_FALSE(in.next(size));   // unsigned takes no sign
  EXPECT_FALSE(in.next(i));      // past INT_MAX
  EXPECT_FALSE(in.next(ll));
  EXPECT_TRUE(in.next(d));
  EXPECT_EQ(d, 1.0);
  EXPECT_FALSE(in.next(d));
  EXPECT_FALSE(in.next(d));  // end of input
}

TEST(TokenReader, ThrowingReadersNameWhatFailed) {
  const auto message = [](const char* text, auto read) {
    TokenReader in(text);
    try {
      read(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message("", [](TokenReader& in) { in.read_int("tree depth"); }),
            "tree depth: unexpected end of input");
  EXPECT_EQ(message("2x", [](TokenReader& in) { in.read_int("tree depth"); }),
            "tree depth: bad integer '2x'");
  EXPECT_EQ(message("-1", [](TokenReader& in) { in.read_size("count"); }),
            "count: bad unsigned integer '-1'");
  EXPECT_EQ(message("4294967296", [](TokenReader& in) { in.read_int("n"); }),
            "n: integer out of range");
  EXPECT_EQ(message("nan", [](TokenReader& in) { in.read_f64("weight"); }),
            "weight: non-finite value 'nan'");
  EXPECT_EQ(message("1.0junk", [](TokenReader& in) { in.read_f64("weight"); }),
            "weight: bad number '1.0junk'");
  EXPECT_EQ(message("mat", [](TokenReader& in) { in.expect_word("net", "L"); }),
            "L: expected 'net', got 'mat'");
  TokenReader in("nan");
  EXPECT_TRUE(std::isnan(in.read_f64("gain", false)));
}

}  // namespace
}  // namespace smart::util
