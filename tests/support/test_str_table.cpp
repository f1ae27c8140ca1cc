// Tests for string helpers and the table renderer used by the benches.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "support/error.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace wfe {
namespace {

TEST(Str, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Str, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(-1.0, 0), "-1");
}

TEST(Str, Sci) { EXPECT_EQ(sci(0.000123, 2), "1.23e-04"); }

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.0 B");
  EXPECT_EQ(human_bytes(6.0 * 1024 * 1024), "6.0 MiB");
  EXPECT_EQ(human_bytes(1024.0 * 1024 * 1024), "1.0 GiB");
}

TEST(Str, HumanSeconds) {
  EXPECT_EQ(human_seconds(1.25), "1.250 s");
  EXPECT_EQ(human_seconds(0.31), "310.000 ms");
  EXPECT_EQ(human_seconds(42e-6), "42.000 us");
  EXPECT_EQ(human_seconds(5e-9), "5.0 ns");
}

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Str, ParseNumberTakesWholeTokensOnly) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_EQ(parse_number<long long>("-9000000000"), -9000000000LL);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(parse_number<double>("0.25"), 0.25);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "12x", " 1", "1 ", "0x10", "--1"}) {
    EXPECT_FALSE(parse_number<int>(bad)) << "'" << bad << "'";
    EXPECT_FALSE(parse_number<double>(bad)) << "'" << bad << "'";
  }
}

TEST(Str, ParseNumberRejectsOutOfRangeAndNonFinite) {
  // A negative step count must not wrap to 2^64 - 1.
  EXPECT_FALSE(parse_number<std::uint64_t>("-1"));
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_number<int>("2147483648"));
  EXPECT_FALSE(parse_number<int>("1.5"));
  EXPECT_FALSE(parse_number<double>("1e999"));
  EXPECT_FALSE(parse_number<double>("inf"));
  EXPECT_FALSE(parse_number<double>("nan"));
}

TEST(Str, ParseFlagReportsTheFlagAndToken) {
  std::ostringstream err;
  int value = 5;
  EXPECT_FALSE(parse_flag("--pool", "nope", value, err));
  EXPECT_EQ(value, 5);  // untouched on failure
  EXPECT_EQ(err.str(), "bad value for --pool: 'nope'\n");

  std::ostringstream quiet;
  double rate = 0.0;
  EXPECT_TRUE(parse_flag("--faults", "150", rate, quiet));
  EXPECT_EQ(rate, 150.0);
  EXPECT_TRUE(quiet.str().empty());

  // Below the minimum is reported like malformed, never clamped.
  std::ostringstream low;
  int threads = 3;
  EXPECT_FALSE(parse_flag("--threads", "0", threads, low, 1));
  EXPECT_EQ(threads, 3);
  EXPECT_EQ(low.str(), "bad value for --threads: '0'\n");
  std::uint64_t samples = 0;
  EXPECT_TRUE(parse_flag("--probe-samples", "1", samples, quiet, 1));
  EXPECT_EQ(samples, 1u);
  double cv = 1.0;
  EXPECT_TRUE(parse_flag("--probe-jitter", "0", cv, quiet, 0.0));
  EXPECT_EQ(cv, 0.0);
  EXPECT_FALSE(parse_flag("--probe-jitter", "-0.5", cv, low, 0.0));
  EXPECT_EQ(cv, 0.0);

  // Above the maximum likewise; both bounds are inclusive.
  std::ostringstream high;
  double p = 0.5;
  EXPECT_FALSE(parse_flag("--stage-error-p", "2", p, high, 0.0, 1.0));
  EXPECT_EQ(p, 0.5);
  EXPECT_EQ(high.str(), "bad value for --stage-error-p: '2'\n");
  EXPECT_TRUE(parse_flag("--stage-error-p", "1", p, quiet, 0.0, 1.0));
  EXPECT_EQ(p, 1.0);
}

TEST(Table, RejectsEmptyHeader) { EXPECT_THROW(Table({}), InvalidArgument); }

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), InvalidArgument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, SeparatorRendersRule) {
  Table t({"c"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.render();
  // header rule + top + separator + bottom = 4 rules
  std::size_t rules = 0;
  for (std::size_t pos = out.find("+-"); pos != std::string::npos;
       pos = out.find("+-", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"3", "4"});
  EXPECT_EQ(t.render_csv(), "a,b\n1,2\n3,4\n");
}

TEST(Table, CountsRowsAndColumns) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.columns(), 3u);
  t.add_row({"", "", ""});
  EXPECT_EQ(t.rows(), 1u);
}

}  // namespace
}  // namespace wfe
