// Synthetic address-trace generators mirroring the AccessPattern
// taxonomy of the analytical model, and helpers to build a cache
// hierarchy from a machine descriptor and replay kernel-like sweeps on
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "core/types.hpp"
#include "machine/descriptor.hpp"

namespace sgp::cachesim {

struct AccessRecord {
  Addr addr = 0;
  bool is_write = false;
};

using Trace = std::vector<AccessRecord>;

/// Trace of one full sweep over `arrays` arrays of `elems` elements of
/// `elem_bytes` each, in the given pattern. Arrays are laid out
/// contiguously starting at `base`, separated by a guard page.
struct SweepSpec {
  core::AccessPattern pattern = core::AccessPattern::Streaming;
  std::size_t arrays = 2;        ///< first arrays-1 are read, last is written
  std::size_t elems = 1 << 16;
  std::size_t elem_bytes = 8;
  std::size_t stride_elems = 8;  ///< Strided pattern only
  unsigned seed = 7;             ///< Gather pattern only
  Addr base = 1 << 20;
};

/// Materializes one full sweep by flattening the TraceCursor run
/// stream (replay.hpp); reserves the exact per-pattern access count up
/// front. Its callers are check::replay_vector (the reference path of
/// the vector-vs-stream oracle) and the trace-order tests.
Trace generate_sweep(const SweepSpec& spec);

/// Per-level configs of the cache hierarchy mirroring a machine
/// descriptor's per-core view (private L1, the core's share of L2, the
/// core's share of L3 when core-side). `l2_sharers`/`l3_sharers` model
/// how many active cores divide the shared levels. Config-level
/// oracles perturb them before replaying.
std::vector<CacheConfig> hierarchy_configs(
    const machine::MachineDescriptor& m, int l2_sharers = 1,
    int l3_sharers = 1);

/// Replays the sweep `reps` times (flushing nothing in between, like a
/// RAJAPerf kernel re-running over resident data) on the hierarchy of
/// hierarchy_configs(m, l2_sharers, l3_sharers) and returns it for
/// inspection. Delegates to the streaming engine (replay_stream in
/// replay.hpp): runs are coalesced per cache line and reps are
/// extrapolated once the per-level deltas go periodic — the statistics
/// are bit-identical to the full vector replay.
struct ReplayResult {
  Hierarchy hierarchy;
  std::uint64_t accesses = 0;
  /// Miss rate of the *last* rep at each level (steady state).
  std::vector<double> steady_miss_rate;
  /// DRAM bytes the *last* rep moved: hierarchy.dram_bytes() after it
  /// minus dram_bytes() before it.
  std::uint64_t steady_dram_bytes = 0;
};

ReplayResult replay(const machine::MachineDescriptor& m,
                    const SweepSpec& spec, int reps, int l2_sharers = 1,
                    int l3_sharers = 1);

}  // namespace sgp::cachesim
