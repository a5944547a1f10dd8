// Fork/join and barrier cost of OpenMP-style parallel regions.
#pragma once

#include "core/signature.hpp"
#include "machine/descriptor.hpp"
#include "machine/placement.hpp"

namespace sgp::sim {

class SyncModel {
 public:
  explicit SyncModel(const machine::MachineDescriptor& m) : m_(m) {}

  /// Seconds of synchronisation overhead in one rep of the kernel
  /// (parallel_regions_per_rep fork/joins). Zero for a serial run. Cost
  /// grows with thread count and with the number of NUMA regions the
  /// team spans — cross-mesh barriers are expensive on the SG2042.
  double seconds_per_rep(const core::KernelSignature& sig,
                         const machine::PlacementView& stats,
                         int nthreads) const;

 private:
  const machine::MachineDescriptor& m_;
};

}  // namespace sgp::sim
