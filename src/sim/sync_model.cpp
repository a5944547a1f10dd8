#include "sim/sync_model.hpp"

#include <cmath>

namespace sgp::sim {

double SyncModel::seconds_per_rep(const core::KernelSignature& sig,
                                  const machine::PlacementView& stats,
                                  int nthreads) const {
  if (nthreads <= 1) return 0.0;
  const double per_region_us =
      m_.fork_join_us + m_.barrier_us_per_thread * nthreads;
  const double span_factor =
      std::pow(m_.numa_span_sync_factor,
               std::max(0, stats.regions_spanned - 1));
  return sig.parallel_regions_per_rep * per_region_us * span_factor * 1e-6;
}

}  // namespace sgp::sim
