// End-to-end proof for the observability layer: runs the fig1 bench
// binary (path injected by CMake as SGP_FIG1_BIN) with and without
// --trace/--metrics and asserts that
//   * the CSV artifacts are byte-identical with observability on and
//     off (instrumentation never perturbs results);
//   * the trace is well-formed Chrome trace_event JSON containing
//     spans from the simulator and the sweep engine (fig1's batches are
//     too small to wake the thread pool; engine_test checks pool spans
//     in process);
//   * the manifest is well-formed and its cache accounting is
//     internally consistent (hits + misses == requests, one
//     simulation per miss).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "cannot open " << p;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int run(const std::string& cmd) {
  return std::system((cmd + " > /dev/null 2>&1").c_str());
}

/// Pulls the integer value of `"key": N` out of a rendered manifest.
std::uint64_t extract_u64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(ObsIntegration, BenchWithTraceAndMetricsMatchesPlainRun) {
  const std::string bin = SGP_FIG1_BIN;
  ASSERT_TRUE(fs::exists(bin)) << bin;

  const fs::path base = fs::temp_directory_path() / "sgp_obs_itest";
  fs::remove_all(base);
  const fs::path plain = base / "plain";
  const fs::path traced = base / "traced";
  fs::create_directories(plain);
  fs::create_directories(traced);
  const fs::path trace_json = base / "trace.json";
  const fs::path manifest_json = base / "manifest.json";

  ASSERT_EQ(run(bin + " --csv " + plain.string()), 0);
  ASSERT_EQ(run(bin + " --csv " + traced.string() +
                " --jobs 2 --trace " + trace_json.string() +
                " --metrics " + manifest_json.string()),
            0);

  // Observability must not perturb the science: every CSV byte-equal.
  std::size_t csvs = 0;
  for (const auto& entry : fs::directory_iterator(plain)) {
    ++csvs;
    const fs::path other = traced / entry.path().filename();
    ASSERT_TRUE(fs::exists(other)) << other;
    EXPECT_EQ(slurp(entry.path()), slurp(other))
        << entry.path().filename() << " differs with obs enabled";
  }
  EXPECT_GT(csvs, 0u) << "bench wrote no CSV artifacts";

  const std::string trace = slurp(trace_json);
  EXPECT_TRUE(sgp::obs::json_valid(trace));
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("Simulator::run"), std::string::npos);
  EXPECT_NE(trace.find("SweepEngine::"), std::string::npos);

  const std::string manifest = slurp(manifest_json);
  EXPECT_TRUE(sgp::obs::json_valid(manifest));
  EXPECT_NE(manifest.find("\"sgp.run-manifest.v1\""), std::string::npos);
  EXPECT_NE(manifest.find("\"machines\""), std::string::npos);
  EXPECT_NE(manifest.find("\"metrics\""), std::string::npos);

  // The manifest's engine section is written from SimCache::stats():
  // every request either hit or missed, and each miss ran exactly one
  // simulation (grid points are distinct keys).
  const std::uint64_t requests = extract_u64(manifest, "requests");
  const std::uint64_t hits = extract_u64(manifest, "cache_hits");
  const std::uint64_t misses = extract_u64(manifest, "cache_misses");
  const std::uint64_t sims = extract_u64(manifest, "simulations");
  EXPECT_GT(requests, 0u);
  EXPECT_EQ(hits + misses, requests);
  EXPECT_EQ(sims, misses);

  fs::remove_all(base);
}

}  // namespace
