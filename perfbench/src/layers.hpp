// Per-layer accounting for traced operations: obs trace spans (the
// program's own plus the spans the benchmark opens around its calls into
// each layer) folded into busy and blocking-path self times per layer,
// and obs counter/histogram increases over the same operations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Spans the benchmark opens; each names the layer it wraps.
inline constexpr const char* kOpSpan = "bench.op";
inline constexpr const char* kRenderSpan = "report.render";
inline constexpr const char* kCheckSpan = "check.machine";
inline constexpr const char* kEngineLifecycleSpan = "engine.lifecycle";
/// Prefix of the spans around each experiments:: pipeline call.
inline constexpr const char* kExperimentsPrefix = "experiments:";

/// The layers spans are attributed to, in table order. "bench" is the
/// benchmark's own code between layer calls: the unexplained gap.
const std::vector<std::string>& layer_names();

/// Figures a workload knows that neither spans nor counters carry.
struct LayerExtras {
  double segments_loaded_per_op = 0.0;
  double segment_files = 0.0;  ///< store segment files at end of run
  double parse_us_p50 = 0.0;
  std::uint64_t parse_samples = 0;
  double gen_late_p99_ms = 0.0;
  std::uint64_t gen_late_samples = 0;
  std::uint64_t rejected_overload = 0;  ///< whole run
};

class LayerProfile {
 public:
  /// Starts recording spans and counters for one traced operation.
  void begin();
  /// Stops recording and folds the operation in: `ops` operations took
  /// `wall_ms` of wall time in total.
  void end(double wall_ms, std::uint64_t ops = 1);

  std::uint64_t ops() const { return ops_; }
  double wall_ms() const { return wall_ms_; }

  /// Appends every per-layer metric (see METRICS.md) to `rep`, per
  /// traced operation. `jobs` is the worker count utilisation is
  /// measured against.
  void emit(int jobs, const LayerExtras& extras, Report& rep) const;

 private:
  struct NameTotals {
    double dur_ms = 0.0;
    double self_ms = 0.0;
  };
  void fold_spans();

  std::uint64_t ops_ = 0;
  double wall_ms_ = 0.0;
  Snapshot before_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> hist_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hist_cs_;
  std::map<std::string, NameTotals> by_name_;
  std::map<std::string, double> busy_self_;  ///< layer -> ms, all threads
  std::map<std::string, double> path_;       ///< layer -> ms, blocking path
  double pool_chunk_self_engine_ms_ = 0.0;
};

}  // namespace perfbench
