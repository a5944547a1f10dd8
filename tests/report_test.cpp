// Tests for the report module: statistics, the paper's ratio encoding,
// tables and CSV output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "report/csv.hpp"
#include "report/ratio.hpp"
#include "report/stats.hpp"
#include "report/table.hpp"

namespace sgp::report {
namespace {

// -------------------------------------------------------------- stats --
TEST(Stats, ArithmeticMean) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(arithmetic_mean(v), 2.5);
}

TEST(Stats, GeometricMean) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geometric_mean(v), 2.0);
}

TEST(Stats, SummarizeMinMax) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_EQ(s.count, 3u);
}

TEST(Stats, EmptyInputThrows) {
  const std::vector<double> v;
  EXPECT_THROW((void)arithmetic_mean(v), std::invalid_argument);
  EXPECT_THROW((void)geometric_mean(v), std::invalid_argument);
  EXPECT_THROW((void)summarize(v), std::invalid_argument);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> v{1.0, -1.0};
  EXPECT_THROW((void)geometric_mean(v), std::invalid_argument);
}

TEST(Stats, GeomeanErrorNamesOffendingIndex) {
  const std::vector<double> v{2.0, 4.0, 0.0};
  try {
    (void)geometric_mean(v);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos)
        << e.what();
  }
}

TEST(Stats, SummarizeSkipsNonPositiveForGeomean) {
  // A quarantined kernel's zeroed ratio must not kill the whole-suite
  // aggregate: the geomean skips it and reports the exclusion count.
  const std::vector<double> v{4.0, 0.0, 16.0};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.geomean, 8.0);
  EXPECT_EQ(s.geomean_excluded, 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 20.0 / 3.0);
}

TEST(Stats, SummarizeAllNonPositiveYieldsZeroGeomean) {
  const std::vector<double> v{0.0, -2.0};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.geomean, 0.0);
  EXPECT_EQ(s.geomean_excluded, 2u);
  EXPECT_DOUBLE_EQ(s.mean, -1.0);
}

TEST(Stats, SummarizeAllPositiveExcludesNothing) {
  const std::vector<double> v{1.0, 4.0};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.geomean, 2.0);
  EXPECT_EQ(s.geomean_excluded, 0u);
}

// ----------------------------------------------------- ratio encoding --
TEST(Ratio, PaperAnchors) {
  EXPECT_DOUBLE_EQ(encode_ratio(1.0), 0.0);   // same speed
  EXPECT_DOUBLE_EQ(encode_ratio(2.0), 1.0);   // "one time faster"
  EXPECT_DOUBLE_EQ(encode_ratio(0.5), -1.0);  // "twice as slow"
  EXPECT_DOUBLE_EQ(encode_ratio(3.0), 2.0);
  EXPECT_NEAR(encode_ratio(1.0 / 3.0), -2.0, 1e-12);
}

class RatioRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(RatioRoundTrip, DecodeInvertsEncode) {
  const double r = GetParam();
  // The figure axis decodes as e + 1 above zero and 1 / (1 - e) below.
  const double e = encode_ratio(r);
  EXPECT_NEAR(e >= 0.0 ? e + 1.0 : 1.0 / (1.0 - e), r, 1e-12 * r);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RatioRoundTrip,
                         ::testing::Values(0.01, 0.1, 0.5, 0.9, 1.0, 1.1,
                                           2.0, 10.0, 123.0));

TEST(Ratio, EncodeRejectsNonPositive) {
  EXPECT_THROW((void)encode_ratio(0.0), std::invalid_argument);
  EXPECT_THROW((void)encode_ratio(-1.0), std::invalid_argument);
}

TEST(Ratio, SpeedupAndEfficiency) {
  EXPECT_DOUBLE_EQ(speedup(10.0, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(parallel_efficiency(5.0, 10), 0.5);
  EXPECT_THROW((void)speedup(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)parallel_efficiency(1.0, 0), std::invalid_argument);
}

// -------------------------------------------------------------- table --
TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  const auto out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2.50  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table(std::vector<std::string>{}), std::invalid_argument);
}

TEST(Table, NumFormatsFixed) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(-1.0, 0), "-1");
}

/// printf("%.*f") into a buffer that holds any double in full.
std::string printf_fixed(double v, int decimals) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

TEST(Table, NumIsByteIdenticalToPrintfFixed) {
  std::vector<double> values{
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0, -0.0, -0.001, -0.0049, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375,
      1.0005, 2.675, 1e-300, std::numeric_limits<double>::denorm_min(),
      1e59, -1e59, 1e60, 123456789.0e60, 1e300, -1e300,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  // Exact binary halves at every decimal count (round-half-even).
  for (int d = 0; d <= 6; ++d) {
    for (int k = 0; k < 40; ++k) {
      values.push_back((2.0 * k + 1.0) / std::ldexp(1.0, d + 1));
    }
  }
  // A seeded sweep over magnitudes 1e-8 .. 1e70 and both signs.
  std::mt19937_64 rng(20240417);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> exponent(-8, 70);
  for (int i = 0; i < 20000; ++i) {
    const double v = mantissa(rng) * std::pow(10.0, exponent(rng));
    values.push_back(i % 2 ? -v : v);
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    for (int d = 0; d <= 6; ++d) {
      const std::string got = Table::num(v, d);
      if (got != printf_fixed(v, d) && ++mismatches <= 5) {
        ADD_FAILURE() << "num(" << printf_fixed(v, 17) << ", " << d
                      << ") = " << got << ", printf: " << printf_fixed(v, d);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Table, NumKeepsEveryDigitOfLargeValues) {
  // A 64-byte buffer would cut these at 63 characters; num() keeps the
  // whole number.
  EXPECT_EQ(Table::num(5e59, 2).size(), 63u);  // 60 integer digits
  EXPECT_EQ(Table::num(5e60, 2).size(), 64u);
  EXPECT_EQ(Table::num(-5e60, 2).size(), 65u);
  EXPECT_EQ(Table::num(-5e60, 2), printf_fixed(-5e60, 2));
  const std::string max = Table::num(std::numeric_limits<double>::max(), 6);
  EXPECT_EQ(max.size(), 309u + 7u);
  EXPECT_EQ(max, printf_fixed(std::numeric_limits<double>::max(), 6));
  // Negative decimals mean printf's default of 6; too many throw.
  EXPECT_EQ(Table::num(1.0, -1), "1.000000");
  EXPECT_EQ(Table::num(0.1, Table::kMaxDecimals),
            printf_fixed(0.1, Table::kMaxDecimals));
  EXPECT_THROW((void)Table::num(1.0, Table::kMaxDecimals + 1),
               std::invalid_argument);
}

// ---------------------------------------------------------------- csv --
TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"with\"quote", "with\nnewline"});
  const auto text = csv.text();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Csv, QuotesCarriageReturnsPerRfc4180) {
  CsvWriter csv({"a"});
  csv.add_row({"with\rreturn"});
  csv.add_row({"with\r\ncrlf"});
  const auto text = csv.text();
  EXPECT_NE(text.find("\"with\rreturn\""), std::string::npos);
  EXPECT_NE(text.find("\"with\r\ncrlf\""), std::string::npos);
}

TEST(Csv, WritesFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "sgp_csv_test.csv";
  CsvWriter csv({"h1", "h2"});
  csv.add_row({"1", "2"});
  csv.write(path.string());
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "h1,h2");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsBadPathAndWrongCells) {
  CsvWriter csv({"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), std::invalid_argument);
  EXPECT_THROW(csv.write("/nonexistent_dir_xyz/f.csv"), std::runtime_error);
}

}  // namespace
}  // namespace sgp::report
