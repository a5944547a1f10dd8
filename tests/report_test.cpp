// Tests for the report module: statistics, the paper's ratio encoding,
// tables and CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

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
