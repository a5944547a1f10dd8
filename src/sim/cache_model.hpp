// Decides which level of the hierarchy serves a kernel's working set and
// at what per-thread bandwidth.
#pragma once

#include <string_view>

#include "machine/descriptor.hpp"
#include "machine/placement.hpp"

namespace sgp::sim {

enum class MemLevel { L1, L2, L3, DRAM };

constexpr std::string_view to_string(MemLevel l) noexcept {
  switch (l) {
    case MemLevel::L1:   return "L1";
    case MemLevel::L2:   return "L2";
    case MemLevel::L3:   return "L3";
    case MemLevel::DRAM: return "DRAM";
  }
  return "?";
}

class CacheModel {
 public:
  explicit CacheModel(const machine::MachineDescriptor& m) : m_(m) {}

  /// Smallest level whose (shared-aware) capacity holds the working set.
  /// `ws_total_bytes` is the whole kernel's footprint; threads partition
  /// it. Clusters must hold the slices of all their active threads.
  MemLevel serving_level(double ws_total_bytes,
                         const machine::PlacementView& stats,
                         int nthreads) const;

  /// Per-thread sustained bandwidth out of a cache level, GB/s.
  /// DRAM is the MemoryModel's job and is rejected here.
  double per_thread_bw_gbs(MemLevel level,
                           const machine::PlacementView& stats,
                           int nthreads) const;

 private:
  const machine::MachineDescriptor& m_;
};

}  // namespace sgp::sim
