// Bandwidth of the shared memory system (DRAM, and the SG2042's
// memory-side L3) under a placement: per-NUMA-region slices, a knee-based
// oversubscription derating, and the per-cluster mesh-port cap.
#pragma once

#include "machine/descriptor.hpp"
#include "machine/placement.hpp"

namespace sgp::sim {

/// Which shared memory resource is being priced.
enum class SharedLevel { Dram, MemorySideL3 };

class MemoryModel {
 public:
  explicit MemoryModel(const machine::MachineDescriptor& m) : m_(m) {}

  /// Effective aggregate bandwidth of one region's slice serving `n`
  /// local threads, GB/s. Rises linearly until the slice saturates, then
  /// falls convexly once `n` passes the machine's oversubscription knee:
  /// bw * 1/(1 + gamma * (n - knee)^2).
  double region_bandwidth_gbs(std::size_t region, int n,
                              SharedLevel level) const;

  /// Bandwidth available to the most-constrained thread, GB/s. Assumes
  /// first-touch-distributed data (each thread streams from its own
  /// region), which OMP_PROC_BIND=true + parallel initialisation gives.
  /// Applies the per-cluster mesh-port cap, the single-core limit and
  /// the machine derating.
  double per_thread_bw_gbs(const machine::PlacementView& stats,
                           int nthreads, SharedLevel level) const;

  /// Threads per region after which the derate kicks in.
  double knee(std::size_t region) const;

  /// Peak bandwidth of one region's slice of the shared level, GB/s.
  /// Throws std::out_of_range on a bad region index (both level paths —
  /// the DRAM path reads m_.numa[region] directly).
  double region_peak_gbs(std::size_t region, SharedLevel level) const;

 private:
  const machine::MachineDescriptor& m_;
};

}  // namespace sgp::sim
