#include "sim/memory_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sgp::sim {

double MemoryModel::knee(std::size_t region) const {
  if (region >= m_.numa.size()) {
    throw std::out_of_range("MemoryModel::knee: bad region");
  }
  if (m_.oversubscribe_knee > 0.0) return m_.oversubscribe_knee;
  return static_cast<double>(m_.numa[region].cores.size());
}

double MemoryModel::region_peak_gbs(std::size_t region,
                                    SharedLevel level) const {
  // Validated here rather than in each caller: the DRAM branch indexes
  // m_.numa directly, so a bad region is UB without this check.
  if (region >= m_.numa.size()) {
    throw std::out_of_range("MemoryModel::region_peak_gbs: bad region");
  }
  if (level == SharedLevel::Dram) return m_.numa[region].mem_bw_gbs;
  // Memory-side L3: the package cache's aggregate bandwidth is striped
  // across the NUMA regions' mesh slices.
  const double aggregate = m_.l3.bw_bytes_per_cycle * m_.core.clock_ghz;
  return aggregate / static_cast<double>(m_.numa.size());
}

double MemoryModel::region_bandwidth_gbs(std::size_t region, int n,
                                         SharedLevel level) const {
  if (region >= m_.numa.size()) {
    throw std::out_of_range("region_bandwidth_gbs: bad region");
  }
  if (n <= 0) return 0.0;
  const double peak = region_peak_gbs(region, level);
  const double ramp =
      std::min(static_cast<double>(n) * m_.core.stream_bw_gbs, peak);
  const double over =
      std::max(0.0, static_cast<double>(n) - knee(region));
  const double derate =
      1.0 / (1.0 + m_.oversubscribe_gamma * over * over);
  return ramp * derate;
}

double MemoryModel::per_thread_bw_gbs(const machine::PlacementView& stats,
                                      int nthreads,
                                      SharedLevel level) const {
  if (nthreads < 1) throw std::invalid_argument("per_thread_bw_gbs: n");
  double worst = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < stats.threads_per_numa.size(); ++r) {
    const int n = stats.threads_per_numa[r];
    if (n == 0) continue;
    worst = std::min(worst, region_bandwidth_gbs(r, n, level) / n);
  }
  if (!std::isfinite(worst)) {
    throw std::invalid_argument("per_thread_bw_gbs: empty placement");
  }
  // Single-core limit.
  worst = std::min(worst, m_.core.stream_bw_gbs);
  // Cluster mesh-port cap (four cores behind one L2 port on the SG2042).
  if (m_.cluster_bw_gbs > 0.0) {
    for (int k : stats.threads_per_cluster) {
      if (k > 0) worst = std::min(worst, m_.cluster_bw_gbs / k);
    }
  }
  return worst * m_.memory_derating;
}

}  // namespace sgp::sim
