// Shared plumbing for the benchmark driver: run configuration, the
// seeded generator, exact-sample statistics, the report every workload
// fills, and obs registry snapshots the per-layer table is read from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

// The program's namespaces (obs, engine, check, ...) are used unqualified.
using namespace sgp;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Worker threads for every parallel engine, server and validation
/// pass. Fixed (not hardware-derived) so two hosts run the same schedule,
/// and below a 4-core host's core count so the benchmark's own client
/// threads and other tenants do not stall every parallel batch.
inline constexpr int kJobs = 2;

/// Set-up repetitions per run, spread over the run (see SetupRuns).
inline constexpr int kSetupReps = 11;
/// setup_s is this quantile of the set-up repetitions, and op_ms the sum
/// over an operation's parts of this quantile of each part's samples:
/// low quantiles, because contention from other tenants of a shared host
/// slows whole stretches of a run by up to 2x (see METRICS.md).
inline constexpr double kSetupQuantile = 0.1;
inline constexpr double kOpQuantile = 0.02;

/// Command-line configuration shared by every workload.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;  ///< absolute repository checkout (goldens, packs)
  std::string work;  ///< absolute scratch directory (stores); also cwd
};

/// splitmix64: the only randomness source; every generated input is a
/// pure function of the --seed argument.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(next() % n);
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Median of exact samples (mean of the two middle values when even);
/// 0 for no samples.
double median(std::vector<double> v);
/// Nearest-rank quantile of exact samples, q in (0, 1]; 0 for none.
double quantile(std::vector<double> v, double q);

/// One reported number. `note` carries the base of a ratio, a bucket
/// range or a sample count, printed in the human-readable table only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Everything one run reports.
struct Report {
  /// Wall seconds of each set-up repetition.
  std::vector<double> setup_s;
  /// Exact per-operation samples (ms) from untraced operations.
  std::vector<double> op_ms;
  /// Exact samples (ms) per part of an operation (the four regeneration
  /// modes, the machines of a validation pass, or for serve_mixed one
  /// part: each round's open-loop p50 latency); op_ms is the sum over the
  /// parts of each one's kOpQuantile.
  std::vector<std::vector<double>> parts;
  std::string parts_what;  ///< what the parts are, for the table
  /// Exact per-operation samples (ms) of traced operations (trace runs
  /// interleave traced and untraced operations).
  std::vector<double> traced_op_ms;

  /// Peak resident set (MiB) over the operations, set-up excluded.
  double peak_rss_mb = 0.0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few mismatch descriptions

  /// Workload-specific figures for the human-readable table (the named
  /// end-to-end figures such as regen_cold_ms or serve_rps).
  std::vector<Metric> table;
  /// Per-layer metrics (trace runs only).
  std::vector<Metric> layers;

  /// Records one checked operation; a false `ok` is a failure and, with
  /// a message, a correctness error.
  void check(bool ok, const std::string& what = {});
  void note(std::string name, double value, std::string unit,
            std::string note = {});
  void layer(std::string name, double value, std::string unit,
             std::string note = {});
};

/// Process peak resident set (VmHWM) in MiB since the start or the last
/// reset_peak_rss().
double peak_rss_mb();
/// Returns freed heap to the system and resets VmHWM to the current
/// resident set (/proc/self/clear_refs); throws std::runtime_error when
/// the kernel refuses, since peak_rss_mb would then include set-up.
void reset_peak_rss();

/// Counter and histogram values at one instant.
struct Snapshot {
  obs::MetricsSnapshot snap;
  static Snapshot take();
  std::uint64_t counter(const std::string& name) const;
  /// Bucket floor -> count for one histogram (empty when absent).
  std::map<std::uint64_t, std::uint64_t> histogram(
      const std::string& name) const;
  std::pair<std::uint64_t, std::uint64_t> histogram_count_sum(
      const std::string& name) const;
};

/// A quantile read from log2-bucket histogram counts (bucket floor ->
/// samples): the sample lies in [lo, hi). Bucket resolution only —
/// never an exact value.
struct BucketBound {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t samples = 0;
};
BucketBound bucket_quantile(
    const std::map<std::uint64_t, std::uint64_t>& buckets, double q);

/// Shortest round-trip rendering of a double (std::to_chars).
std::string fmt_num(double v);

/// Whole-file read; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// Removes and re-creates a directory.
void fresh_dir(const std::string& path);

/// Persist segment files (*.sgpc) in a store directory.
std::size_t segment_files(const std::string& dir);

}  // namespace perfbench
