// Integration: the bench-side CSV emitters must produce parseable,
// complete files for every artifact writer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench/bench_common.hpp"

namespace sgp::bench {
namespace {

namespace fs = std::filesystem;

class CsvIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "sgp_csv_integration";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Counts data rows and checks every row has the header's arity.
  std::size_t check_csv(const fs::path& path) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << path;
    std::string header;
    std::getline(f, header);
    const auto cols =
        static_cast<std::size_t>(std::count(header.begin(), header.end(),
                                            ',')) +
        1;
    EXPECT_GE(cols, 2u) << path;
    std::size_t rows = 0;
    std::string line;
    while (std::getline(f, line)) {
      if (line.empty()) continue;
      // None of our emitters quote commas, so arity == comma count + 1.
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(line.begin(), line.end(), ',')) +
                    1,
                cols)
          << path << ": " << line;
      ++rows;
    }
    return rows;
  }

  fs::path dir_;
};

TEST_F(CsvIntegration, SeriesCsvHasAllClassesAndSeries) {
  const auto series = experiments::figure1(engine::shared_engine());
  const auto path = (dir_ / "fig1.csv").string();
  write_series_csv(path, series);
  // 5 series x 6 classes.
  EXPECT_EQ(check_csv(path), 30u);
}

TEST_F(CsvIntegration, ScalingCsvHasAllCells) {
  const auto table =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 engine::shared_engine());
  const auto path = (dir_ / "tab3.csv").string();
  write_scaling_csv(path, table);
  // 6 thread counts x 6 classes.
  EXPECT_EQ(check_csv(path), 36u);
}

TEST_F(CsvIntegration, BenchArgParsing) {
  const char* argv1[] = {"prog", "--csv", "/tmp/x", "--perf"};
  const auto opt = parse_bench_args(4, const_cast<char**>(argv1));
  EXPECT_EQ(opt.csv_dir.value_or(""), "/tmp/x");
  EXPECT_TRUE(opt.perf);

  const char* argv2[] = {"prog"};
  const auto defaults = parse_bench_args(1, const_cast<char**>(argv2));
  EXPECT_FALSE(defaults.csv_dir.has_value());
  EXPECT_FALSE(defaults.perf);
}

TEST_F(CsvIntegration, BenchArgParsingRejectsBadFlags) {
  const char* missing[] = {"prog", "--csv"};
  EXPECT_EXIT(parse_bench_args(2, const_cast<char**>(missing)),
              ::testing::ExitedWithCode(64), "missing value");
  const char* unknown[] = {"prog", "--wat"};
  EXPECT_EXIT(parse_bench_args(2, const_cast<char**>(unknown)),
              ::testing::ExitedWithCode(64), "unknown flag");
  // The engine has no worker count any more, so --jobs is unknown.
  const char* jobs[] = {"prog", "--jobs", "4"};
  EXPECT_EXIT(parse_bench_args(3, const_cast<char**>(jobs)),
              ::testing::ExitedWithCode(64), "unknown flag '--jobs'");
  const char* badjobs[] = {"prog", "--jobs", "pony"};
  EXPECT_EXIT(parse_bench_args(3, const_cast<char**>(badjobs)),
              ::testing::ExitedWithCode(64), "unknown flag '--jobs'");
}

}  // namespace
}  // namespace sgp::bench
