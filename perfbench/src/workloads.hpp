// The benchmark's workloads. Each fills a Report: set-up repetitions,
// exact per-operation samples, correctness checks and, on traced runs,
// the per-layer metrics.
#pragma once

#include <functional>
#include <string>

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

/// Regenerates the 11 paper artifacts repeatedly in four modes.
void run_regen(const Config& cfg, Report& rep);
/// Drives sgp-serve's Server over its AF_UNIX transport.
void run_serve(const Config& cfg, Report& rep);
/// Runs check::check_machine over every registered and seeded random
/// machine.
void run_validate(const Config& cfg, Report& rep);

/// Loads machines/*.ini: into machine::shared_registry() on the first
/// set-up repetition, into a fresh registry (same parse and validation
/// work) on later ones. Records the load as one checked operation.
void load_machine_packs(const Config& cfg, int setup_rep, Report& rep);

/// The set-up repetitions of a run. The first runs at construction,
/// before any operation; the rest are spread evenly over the measured
/// period, so setup_s samples the same host conditions as the
/// operations. Every repetition redoes the whole set-up and leaves the
/// same state. The peak resident set is read and reset around each
/// repetition, so rep.peak_rss_mb covers the operations only.
class SetupRuns {
 public:
  SetupRuns(const Config& cfg, std::function<void(int)> setup, Report& rep);
  /// Runs the repetitions due after `measured_ms` of measuring; returns
  /// their wall time in ms, which is not measuring time.
  double run_due(double measured_ms);
  /// Runs the repetitions still due and records rep.peak_rss_mb.
  void finish();

 private:
  void run_one();

  double budget_ms_;
  std::function<void(int)> setup_;
  Report& rep_;
  int done_ = 0;
  double measured_peak_mb_ = 0.0;
};

/// How measure_loop runs one operation.
enum class Pass { Warmup, Measured, Traced };

/// Runs `op(i, pass)` once as a warm-up, then back to back until
/// `seconds` of measuring have passed (at least `min_ops` times), with
/// `setup`'s repetitions in between, and finishes `setup`. On traced runs
/// operations alternate between measured and traced ones, traced ones
/// recorded into `profile`; measured samples go to rep.op_ms, traced
/// ones to rep.traced_op_ms. `op` returns the operation's wall time in
/// ms.
void measure_loop(const Config& cfg, std::size_t min_ops,
                  const std::function<double(std::size_t, Pass)>& op,
                  LayerProfile& profile, SetupRuns& setup, Report& rep);

}  // namespace perfbench
