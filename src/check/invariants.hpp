// Cross-model differential validation: the roofline closed form, the
// event-driven cache simulator and sim::Simulator are three independent
// routes to the same numbers, and the invariants here tie them together
// so a bug in any one model trips a check instead of silently skewing
// every figure and table.
//
// Each invariant only asserts what is *structural* in the models (holds
// for every valid descriptor, not just the paper's calibrated seven):
//   * breakdown-consistency: total_s == max(compute, memory)+sync+atomic;
//   * roofline-compute-bound: total time is bounded below by
//     flops / (roofline compute ceiling x threads). Skipped for
//     integer-dominated kernels, whose vector path prices FP at zero;
//   * roofline-bandwidth-bound: when the analytic model says DRAM serves
//     the working set, total time is bounded below by
//     streamed bytes / (single-core stream bandwidth x threads) — every
//     bandwidth term in the memory model only derates from that peak;
//   * scalar-floor: the executed code path is never more than 5%
//     slower than forcing VectorMode::Scalar. This one is a
//     *calibration* property (a descriptor with a weak vector unit can
//     violate it legitimately), so it is optional and the fuzz driver
//     over random machines turns it off;
//   * reps-linearity: doubling reps exactly doubles every component;
//   * size-monotonicity: scaling iterations and working set together
//     8x never reduces total time;
//   * thread-monotonicity: compute_s never rises and sync_s never falls
//     as threads are added (total_s may rise — the paper's 32-beats-64
//     oversubscription knee is a feature, not a bug);
//   * cachesim-consistency: replaying synthetic traces on the
//     set-associative simulator agrees with the analytic serving-level
//     decision and DRAM traffic term.
//
// Per-check metrics land in the obs registry as check.<invariant>.points
// and check.<invariant>.violations (the latter registered on the first
// violation).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cachesim/cache.hpp"
#include "core/signature.hpp"
#include "machine/descriptor.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"

namespace sgp::check {

struct CheckOptions {
  /// See the header comment: structural for the paper's machines, not
  /// for arbitrary descriptors.
  bool scalar_floor = true;
};

/// The sorted, de-duplicated {1, n/2, n} thread grid (serial, half and
/// full width) the checks sweep on an n-core machine.
std::vector<int> serial_half_full_threads(int num_cores);

struct Violation {
  std::string invariant;  ///< e.g. "roofline-compute-bound"
  std::string machine;
  std::string kernel;
  std::string where;   ///< config rendering (precision/threads/placement)
  std::string detail;  ///< the violated inequality, with numbers
};

std::string to_string(const Violation& v);

struct CheckReport {
  std::uint64_t points = 0;  ///< individual invariant evaluations
  std::vector<Violation> violations;

  bool ok() const noexcept { return violations.empty(); }
  void merge(CheckReport other);
};

/// Runs the invariants against one machine. Owns the Simulator (and
/// thereby validates the descriptor on construction).
class InvariantChecker {
 public:
  explicit InvariantChecker(machine::MachineDescriptor m,
                            CheckOptions opt = {});

  const machine::MachineDescriptor& machine() const noexcept {
    return sim_.machine();
  }

  /// All single-point invariants for one (kernel, config).
  void check_point(const core::KernelSignature& sig,
                   const sim::SimConfig& cfg, CheckReport& report) const;

  /// compute_s never rises and sync_s never falls along
  /// `thread_counts`, which must be ascending (all other cfg fields
  /// held fixed).
  void check_thread_monotonicity(const core::KernelSignature& sig,
                                 const sim::SimConfig& base,
                                 const std::vector<int>& thread_counts,
                                 CheckReport& report) const;

  /// Replays synthetic traces through cachesim and checks the analytic
  /// serving level and DRAM traffic term agree with the simulated
  /// hierarchy (an L1-resident case and a DRAM-streaming case). The
  /// DRAM-streaming case reads its measured rep's per-level stats delta
  /// summed over the set shards of dram_stream_delta (one shard:
  /// dram_stream_delta(0, 1)); the report is the same for any shard
  /// count.
  void check_cachesim_consistency(
      const std::vector<cachesim::CacheStats>& dram_delta,
      CheckReport& report) const;

  /// Set shard `shard` of `shards` of the DRAM-streaming case's replay:
  /// its measured rep's per-level stats delta. `shards` is a power of
  /// two no larger than dram_stream_shard_limit().
  std::vector<cachesim::CacheStats> dram_stream_delta(
      std::size_t shard, std::size_t shards) const;

  /// Hierarchy::shard_limit of the DRAM-streaming case's hierarchy.
  std::size_t dram_stream_shard_limit() const;

 private:
  sim::Simulator sim_;
  CheckOptions opt_;
};

/// Runs `fn(i)` for every index in [0, n) — sharded over a ThreadPool
/// when `jobs` resolves to more than one worker (0 = one per hardware
/// thread) — and merges the per-index reports in index order. The
/// merged report is byte-identical to a serial run regardless of the
/// worker count; `fn` must be safe to call concurrently.
CheckReport sharded_reports(
    std::size_t n, int jobs,
    const std::function<CheckReport(std::size_t)>& fn);

/// Every invariant for one machine over the given kernels at a standard
/// config grid (both precisions; serial, half and full threads; the
/// three placements at full width), plus the cachesim consistency pass.
/// One sharded_reports dispatch over `jobs` workers runs the
/// DRAM-streaming replay as one set shard per worker (the first tasks,
/// as the longest) alongside one task per kernel signature; the
/// cachesim pass is evaluated from the summed shards afterwards.
/// Reports merge in signature order with the cachesim pass last, so the
/// output does not depend on the worker count. Violation text is
/// rendered only for failing invariants.
CheckReport check_machine(const machine::MachineDescriptor& m,
                          const std::vector<core::KernelSignature>& sigs,
                          const CheckOptions& opt = {}, int jobs = 1);

}  // namespace sgp::check
