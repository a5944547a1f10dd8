// Zero-materialization streaming replay engine over the trace-driven
// cache simulator.
//
// The cachesim oracle's reference (check::replay_vector) materializes
// every access of a sweep into a std::vector<AccessRecord> and walks it
// one address at a time — O(elems x arrays x reps) memory traffic just
// to *build* the input. Here every rep rewinds a TraceCursor and feeds
// its runs to Hierarchy::access_run, one tag check per L1 line a run
// touches, so the trace is never materialized. replay_stream stops
// simulating reps once the per-level stats deltas of two consecutive
// reps are identical, extrapolating the remaining reps arithmetically
// (exact whenever two equal deltas imply a closed state orbit — which
// holds for every pattern, Gather included, because rewind() re-seeds
// Gather's index stream, so every rep replays the identical addresses).
//
// generate_sweep (trace.hpp) is implemented on top of TraceCursor, so
// the materialized trace and the streamed runs are the same access
// sequence by construction and both replay paths produce bit-identical
// CacheStats. The vector-vs-stream oracle (check::cachesim_agreement)
// and cachesim_replay_test assert exactly that, per pattern;
// perfbench's validate_machines workload records the stream path's
// cost (cachesim.replay_ms, cachesim.accesses_simulated).
//
// Obs counters (docs/OBSERVABILITY.md): cachesim.replays,
// cachesim.runs, cachesim.line_segments, cachesim.accesses_coalesced,
// cachesim.accesses_simulated, cachesim.reps_skipped; each replay is
// wrapped in a "cachesim.replay" span.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/trace.hpp"

namespace sgp::cachesim {

/// Pull-based generator for the access runs of one full sweep over a
/// SweepSpec. Streaming/Strided sweeps are emitted as per-array runs
/// interleaved at a fixed element-block granularity (kRunBlockElems),
/// so each run covers many consecutive same-array elements; the
/// stencil/gather/recurrence patterns keep their per-element run
/// structure. The cursor defines the canonical trace order:
/// generate_sweep flattens exactly this run stream, and replay_stream
/// feeds it to Hierarchy::access_run.
class TraceCursor {
 public:
  /// Element-block granularity for Streaming/Strided run emission:
  /// arrays advance in lockstep block by block, preserving the
  /// interleaved locality structure of the legacy element loop.
  static constexpr std::size_t kRunBlockElems = 256;

  /// Throws std::invalid_argument on an empty spec (no arrays or
  /// elements), like generate_sweep.
  explicit TraceCursor(const SweepSpec& spec);

  /// Yields the next run; false once the sweep is exhausted.
  bool next(AccessRun& out);

  /// Restarts the sweep (Gather re-seeds its RNG, so every rep replays
  /// the identical address sequence).
  void rewind();

  /// Exact number of accesses one full sweep emits — what
  /// generate_sweep reserves (and produces).
  std::uint64_t total_accesses() const noexcept { return total_; }

 private:
  Addr array_addr(std::size_t array, std::size_t elem) const;

  SweepSpec spec_;
  std::size_t reads_ = 1;       ///< arrays read per position
  bool has_write_ = false;      ///< last array is written
  std::size_t streams_ = 1;     ///< runs emitted per position
  std::size_t stride_ = 1;      ///< Strided only
  std::size_t row_ = 0;         ///< Stencil2D/3D/Blocked neighbour row
  std::uint64_t total_ = 0;

  // Position state (reset by rewind).
  std::size_t i_ = 0;       ///< element or block start index
  std::size_t k_ = 0;       ///< index within the current strided phase
  std::size_t phase_ = 0;   ///< strided phase
  std::size_t stream_ = 0;  ///< substream within the current position
  std::mt19937 rng_;
  std::uniform_int_distribution<std::size_t> dist_;
};

/// Streaming replay on an explicit hierarchy: every rep streams the
/// cursor's runs through Hierarchy::access_run, and reps past the
/// steady state are extrapolated. Bit-identical results to the
/// per-access reference (check::replay_vector) on every pattern.
/// cachesim::replay (trace.hpp) builds `cfgs` from a descriptor;
/// config-level oracles pass FIFO / write-around / single-level
/// hierarchies the descriptor path never builds.
ReplayResult replay_stream(const std::vector<CacheConfig>& cfgs,
                           const SweepSpec& spec, int reps);

}  // namespace sgp::cachesim
