// Unit tests for the util layer: Status/StatusOr, Rng, string utilities,
// TSV I/O, and the logging CHECK macros' non-fatal paths.

#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/tsv.h"

namespace exea {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = Status::NotFound("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> taken = std::move(result).value();
  EXPECT_EQ(*taken, 7);
}

Status FailsThenPropagates() {
  EXEA_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status status = FailsThenPropagates();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / kN;
  double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleWithoutReplacementAllWhenKTooLarge) {
  Rng rng(31);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ForkIsDecorrelated) {
  Rng parent(37);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------- String

TEST(StringTest, SplitBasic) {
  std::vector<std::string> parts = Split("a\tb\tc", '\t');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringTest, SplitPreservesEmptyFields) {
  std::vector<std::string> parts = Split("a||b", '|');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringTest, SplitEmptyString) {
  std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

// AppendFixed6 prints exactly printf's "%.6f" bytes, which served align
// scores kept when they moved off printf.
TEST(StringTest, AppendFixed6MatchesPrintf) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.9999995, -0.9999995, 0.99999949999,
      5e-7, -5e-7, 1.5e-6, 2.5e-6, 4.9999999e-7, 123456.7890125,
      std::nextafter(0.9999995, 0.0), std::nextafter(0.9999995, 2.0),
      std::nextafter(5e-7, 0.0), std::nextafter(5e-7, 1.0),
      static_cast<double>(0.9999995f), static_cast<double>(5e-7f),
      static_cast<double>(1.5e-6f), FLT_TRUE_MIN, -FLT_TRUE_MIN, FLT_MIN,
      std::nextafter(FLT_MIN, 0.0f), FLT_MAX, -FLT_MAX, DBL_TRUE_MIN,
      DBL_MIN, DBL_MAX, -DBL_MAX};
  Rng rng(29);
  for (int i = 0; i < 100000; ++i) {
    uint32_t bits = static_cast<uint32_t>(rng.Next());
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  for (int i = 0; i < 2000; ++i) {
    uint64_t bits = rng.Next();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    values.push_back(value);
  }
  char expected[512];
  for (double value : values) {
    std::snprintf(expected, sizeof(expected), "%.6f", value);
    std::string got = "x";
    AppendFixed6(value, &got);
    ASSERT_EQ(got, std::string("x") + expected) << "bits of " << value;
  }
}

TEST(StringTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix/test", "prefix/"));
  EXPECT_FALSE(StartsWith("a", "ab"));
  EXPECT_TRUE(EndsWith("file.txt", ".txt"));
  EXPECT_FALSE(EndsWith("txt", "file.txt"));
}

TEST(StringTest, StripDigits) {
  EXPECT_EQ(StripDigits("GeForce 400"), "GeForce ");
  EXPECT_EQ(StripDigits("abc"), "abc");
  EXPECT_EQ(StripDigits("123"), "");
}

TEST(StringTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("AbC-12"), "abc-12");
}

// ------------------------------------------------------------------- TSV

class TsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("exea_tsv_test_" + std::to_string(::getpid()) + ".tsv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(TsvTest, RoundTrip) {
  std::vector<std::vector<std::string>> rows = {
      {"a", "r", "b"}, {"c", "s", "d"}};
  ASSERT_TRUE(WriteTsv(path_.string(), rows).ok());
  auto read = ReadTsv(path_.string(), 3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, rows);
}

TEST_F(TsvTest, SkipsCommentsAndBlankLines) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fputs("# comment\n\na\tb\n  \nc\td\n", f);
  std::fclose(f);
  auto read = ReadTsv(path_.string(), 2);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
}

// ReadTsv splits lines out of one buffer: a CRLF file, a last line
// without its newline, and comment and blank lines must give the same
// rows and the same line numbers as the plain LF file.
TEST_F(TsvTest, LineEndingsKeepRowsAndLineNumbers) {
  const std::string lf = "# comment\n\na\tb\n  \nc\td\ne\tf";
  std::string crlf;
  for (char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const std::vector<std::vector<std::string>> want = {
      {"a", "b"}, {"c", "d"}, {"e", "f"}};
  for (const std::string& text : {lf, crlf, lf + "\n", crlf + "\r\n"}) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    std::fputs(text.c_str(), f);
    std::fclose(f);
    auto read = ReadTsv(path_.string(), 2);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(*read, want);
    // Requiring a third field fails on the first data row, line 3.
    auto strict = ReadTsv(path_.string(), 3);
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.status().message().find(".tsv:3: "), std::string::npos)
        << strict.status().message();
  }
  // The unterminated last line is still numbered: line 7 of this file.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs((crlf + "\r\nshort").c_str(), f);
  std::fclose(f);
  auto read = ReadTsv(path_.string(), 2);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find(".tsv:7: "), std::string::npos)
      << read.status().message();
}

TEST_F(TsvTest, RejectsShortRows) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  std::fputs("only_one_field\n", f);
  std::fclose(f);
  auto read = ReadTsv(path_.string(), 2);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TsvTest, MissingFileIsIoError) {
  auto read = ReadTsv("/nonexistent/path/file.tsv", 1);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

// ----------------------------------------------------------------- Flags

StatusOr<Flags> ParseArgs(const std::vector<const char*>& argv) {
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesBothFlagFormsAndPositionals) {
  auto flags = ParseArgs({"prog", "run", "--threads", "4", "--out=x.tsv"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->positional(), std::vector<std::string>{"run"});
  EXPECT_EQ(flags->GetInt("threads", 0), 4);
  EXPECT_EQ(flags->GetString("out", ""), "x.tsv");
  EXPECT_FALSE(flags->Has("absent"));
  EXPECT_EQ(flags->GetString("absent", "fallback"), "fallback");
}

TEST(FlagsTest, FlagBeforeAnotherFlagIsABooleanSwitch) {
  auto flags = ParseArgs({"prog", "--verbose", "--threads", "2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("verbose"));
  EXPECT_EQ(flags->GetString("verbose", ""), "true");
  EXPECT_EQ(flags->GetInt("threads", 0), 2);
}

TEST(FlagsTest, TrailingFlagIsABooleanSwitch) {
  auto flags = ParseArgs({"prog", "--help"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->Has("help"));
}

TEST(FlagsTest, StrayDoubleDashIsRejected) {
  auto flags = ParseArgs({"prog", "--"});
  ASSERT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, DuplicateFlagLastWins) {
  auto flags = ParseArgs({"prog", "--threads", "2", "--threads=8"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("threads", 0), 8);
}

TEST(FlagsTest, GetIntOnNonNumericAndNegativeValues) {
  auto flags = ParseArgs({"prog", "--threads", "banana", "--offset", "-3"});
  ASSERT_TRUE(flags.ok());
  // GetInt parses through util::ParseInt64: a non-numeric value is not
  // silently decoded to 0 (old atoll semantics) — it yields the fallback,
  // so a typo'd flag behaves exactly like an absent one.
  EXPECT_EQ(flags->GetInt("threads", 99), 99);
  EXPECT_EQ(flags->GetInt("offset", 0), -3);
}

TEST(FlagsTest, GetIntRejectsTrailingGarbageAndOverflow) {
  auto flags = ParseArgs(
      {"prog", "--a=12junk", "--b=99999999999999999999", "--c=7"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("a", -1), -1);
  EXPECT_EQ(flags->GetInt("b", -1), -1);
  EXPECT_EQ(flags->GetInt("c", -1), 7);
}

TEST(FlagsTest, GetDoubleOnGarbageYieldsFallback) {
  auto flags = ParseArgs({"prog", "--rate=fast", "--lr=0.5x"});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("rate", 0.125), 0.125);
  EXPECT_DOUBLE_EQ(flags->GetDouble("lr", 0.25), 0.25);
}

TEST(FlagsTest, GetDoubleParsesValue) {
  auto flags = ParseArgs({"prog", "--rate=0.25"});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("rate", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(flags->GetDouble("missing", 1.5), 1.5);
}

TEST(FlagsTest, NegativeNumberIsAValueNotAFlag) {
  // "-1" does not start with "--", so it binds as the preceding flag's
  // value instead of turning --threads into a boolean switch.
  auto flags = ParseArgs({"prog", "--threads", "-1"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("threads", 0), -1);
}

// ----------------------------------------------------------------- Timer

TEST(ParseTest, Int32AcceptsOnlyFullInRangeStrings) {
  int32_t v = -7;
  EXPECT_TRUE(util::ParseInt32("42", 0, 100, &v).ok());
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(util::ParseInt32("-5", -10, 10, &v).ok());
  EXPECT_EQ(v, -5);
  // Bounds are a closed interval.
  EXPECT_TRUE(util::ParseInt32("100", 0, 100, &v).ok());
  EXPECT_TRUE(util::ParseInt32("0", 0, 100, &v).ok());
}

TEST(ParseTest, Int32RejectsGarbageWithoutTouchingOut) {
  int32_t v = 123;
  EXPECT_EQ(util::ParseInt32("", 0, 100, &v).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(util::ParseInt32("2junk", 0, 100, &v).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(util::ParseInt32("1 ", 0, 100, &v).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(util::ParseInt32(" 1", 0, 100, &v).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(util::ParseInt32("101", 0, 100, &v).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(util::ParseInt32("-1", 0, 100, &v).code(),
            StatusCode::kOutOfRange);
  // A value outside int32 entirely is still a clean failure, not UB.
  EXPECT_FALSE(util::ParseInt32("99999999999", 0, 100, &v).ok());
  EXPECT_EQ(v, 123);
}

TEST(ParseTest, Int64HandlesWideRangeAndOverflow) {
  int64_t v = 0;
  EXPECT_TRUE(util::ParseInt64("-9223372036854775808", INT64_MIN, INT64_MAX,
                               &v)
                  .ok());
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_FALSE(util::ParseInt64("9223372036854775808", INT64_MIN, INT64_MAX,
                                &v)
                   .ok());
}

TEST(ParseTest, DoubleRejectsNanAndPartialParses) {
  double d = 0.5;
  EXPECT_TRUE(util::ParseDouble("0.25", 0.0, 1.0, &d).ok());
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_FALSE(util::ParseDouble("nan", 0.0, 1.0, &d).ok());
  EXPECT_FALSE(util::ParseDouble("0.5x", 0.0, 1.0, &d).ok());
  EXPECT_EQ(util::ParseDouble("2.5", 0.0, 1.0, &d).code(),
            StatusCode::kOutOfRange);
}

TEST(ParseTest, Uint64HexRoundTripsChecksums) {
  uint64_t h = 0;
  EXPECT_TRUE(util::ParseUint64Hex("deadbeef", &h).ok());
  EXPECT_EQ(h, 0xdeadbeefULL);
  EXPECT_TRUE(util::ParseUint64Hex("ffffffffffffffff", &h).ok());
  EXPECT_EQ(h, UINT64_MAX);
  EXPECT_FALSE(util::ParseUint64Hex("0x12", &h).ok());
  EXPECT_FALSE(util::ParseUint64Hex("12zz", &h).ok());
  EXPECT_FALSE(util::ParseUint64Hex("", &h).ok());
}

TEST(TimerTest, ElapsedIsMonotonic) {
  WallTimer timer;
  double first = timer.ElapsedSeconds();
  double second = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST(TimerTest, ResetRestarts) {
  WallTimer timer;
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace exea
