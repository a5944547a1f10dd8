// The sweep/evaluation engine: a scheduling and caching layer over
// sim::Simulator for the figure/table experiment pipelines.
//
// Responsibilities (the models stay untouched — results are bit
// identical to direct Simulator::run calls):
//   * memoize TimeBreakdowns in a content-addressed cache keyed by
//     (machine fingerprint, signature fingerprint, SimConfig
//     fingerprint) — see engine/fingerprint.hpp;
//   * build each machine's Simulator once per engine, not once per
//     pipeline;
//   * price each batch's misses on the calling thread, one
//     Simulator::run_batch per (machine, signature) group, behind the
//     engine's one mutex: concurrent callers take turns, so a key is
//     never priced by two of them;
//   * count everything (requests, hits, Simulator::run executions,
//     simulators built, batches) for the bench binaries' --perf flag
//     and the engine tests' simulation pin. Where the time goes is
//     the tracer's job (obs/trace.hpp), not the engine's.
//
// Exception contract (docs/RESILIENCE.md): if any point throws, the
// batch stops, the exception propagates to the caller, and the engine
// remains usable (groups priced before the throw stay cached).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/cache.hpp"
#include "engine/fingerprint.hpp"
#include "engine/persist.hpp"

namespace sgp::engine {

/// Durable memo-cache + checkpoint/resume configuration (see
/// docs/PERSISTENCE.md).
struct EnginePersistence {
  PersistOptions store;  ///< directory, I/O fault injection, flush retry
  /// Batch-end flush threshold: a batch that leaves at least this many
  /// unflushed entries appends them as one segment.
  std::size_t flush_min_entries = 256;
};

struct EngineOptions {
  /// Ignored: every batch is priced on the calling thread. Kept only
  /// because the benchmark harness still sets it; remove it together
  /// with those assignments.
  int jobs = 0;
  /// false replicates the pre-engine behaviour (every request runs the
  /// simulator); the tests use it as the reference that cached output
  /// must match byte for byte.
  bool use_cache = true;
  /// Crash-safe persistence; disabled by default (and ignored when
  /// use_cache is false — there is nothing to persist).
  std::optional<EnginePersistence> persist = std::nullopt;
};

/// Persistence-side accounting, filled only when a store is attached.
struct EnginePersistCounters {
  bool enabled = false;
  PersistStats store;       ///< segment-level loads/flushes/quarantines
  CachePersistStats cache;  ///< persist.hits / misses / resumed_points
  std::uint64_t undecodable_entries = 0;  ///< verified frames that failed decode
  std::uint64_t pending_entries = 0;      ///< computed but not yet durable
};

/// Per-engine accounting. Counts only, no timings: perfbench's
/// --trace records where the time goes (sim.batch_ns_per_point,
/// sim.run_ns_p50).
struct EngineCounters {
  std::uint64_t requests = 0;      ///< evaluation points asked for
  std::uint64_t cache_hits = 0;    ///< served from the memo cache
  std::uint64_t cache_misses = 0;  ///< memo cache lookups that missed
  std::uint64_t simulations = 0;   ///< actual Simulator::run executions
  std::uint64_t simulators_built = 0;
  std::uint64_t batches = 0;      ///< run_batch/run_grid calls
  std::uint64_t cache_entries = 0;
  EnginePersistCounters persist;
};

/// One evaluation point for run_batch. The machine and signature are
/// borrowed; they must outlive the call.
struct SweepPoint {
  const machine::MachineDescriptor* machine = nullptr;
  const core::KernelSignature* signature = nullptr;
  sim::SimConfig config;
};

class SweepEngine {
 public:
  explicit SweepEngine(EngineOptions opt = {});
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  /// Evaluate a batch of points; results are positionally aligned with
  /// `points`. Safe to call from multiple threads on one engine: the
  /// whole batch runs under the engine's mutex, so callers take turns.
  std::vector<sim::TimeBreakdown> run_batch(
      std::span<const SweepPoint> points);

  /// Cross-product convenience: machine x configs x signatures, results
  /// row-major by config (result[c * sigs.size() + s]).
  std::vector<sim::TimeBreakdown> run_grid(
      const machine::MachineDescriptor& m,
      std::span<const core::KernelSignature> sigs,
      std::span<const sim::SimConfig> cfgs);

  EngineCounters counters() const;
  /// Drops all memoized results and per-machine simulators. Computed
  /// entries not yet flushed stay queued for the store, and durable
  /// segments on disk are untouched (delete the store directory to
  /// really start cold).
  void clear_cache();

  // ----------------------------------------------- persistence --

  /// True when a durable store is attached.
  bool persistent() const noexcept { return store_ != nullptr; }

  /// Appends every computed entry queued since the last successful
  /// flush as one segment (write-temp-then-rename, retried under the
  /// store's policy). Returns true when nothing remains queued; on
  /// failure the entries stay queued in memory for the next flush. A
  /// no-op without a store.
  bool flush_persistent();

 private:
  /// flush_persistent with mu_ already held.
  bool flush_locked();

  const bool use_cache_;
  /// The engine's one lock, guarding every member below: batches,
  /// flushes, counters() and clear_cache() all take it.
  mutable std::mutex mu_;
  SimCache cache_;

  // Persistence (all null/zero when EngineOptions.persist is unset).
  std::unique_ptr<PersistentStore> store_;
  std::size_t flush_min_entries_ = 0;
  std::uint64_t undecodable_entries_ = 0;
  /// Computed entries not yet durable, in insertion order.
  std::vector<std::pair<CacheKey, sim::TimeBreakdown>> pending_;

  /// Node-based, so group pointers stay valid while a batch adds
  /// simulators.
  std::unordered_map<std::uint64_t, sim::Simulator> sims_;

  std::uint64_t requests_ = 0;
  std::uint64_t simulations_ = 0;
  std::uint64_t simulators_built_ = 0;
  std::uint64_t batches_ = 0;
};

/// The process-wide engine the convenience experiment overloads use, so
/// every bench binary and test in one process shares one cache.
SweepEngine& shared_engine();

}  // namespace sgp::engine
