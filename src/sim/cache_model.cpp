#include "sim/cache_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace sgp::sim {

namespace {
// Effective usable fraction of a cache's nominal capacity (conflict
// misses, metadata, other-process residue).
constexpr double kUsableFraction = 0.75;
}  // namespace

MemLevel CacheModel::serving_level(double ws_total_bytes,
                                   const machine::PlacementView& stats,
                                   int nthreads) const {
  if (nthreads < 1) throw std::invalid_argument("serving_level: nthreads");
  const double ws_per_thread = ws_total_bytes / nthreads;

  if (ws_per_thread <=
      kUsableFraction * static_cast<double>(m_.l1d.size_bytes)) {
    return MemLevel::L1;
  }

  // Every active L2 instance must hold the slices of its active threads.
  const int per_cluster = std::max(1, stats.max_per_cluster);
  if (ws_per_thread * per_cluster <=
      kUsableFraction * static_cast<double>(m_.l2.size_bytes)) {
    return MemLevel::L2;
  }

  if (m_.l3.present()) {
    const int instances =
        std::max(1, m_.num_cores / std::max(1, m_.l3.shared_by));
    const int active_instances = std::min(instances, nthreads);
    const double capacity = kUsableFraction *
                            static_cast<double>(m_.l3.size_bytes) *
                            active_instances;
    if (ws_total_bytes <= capacity) return MemLevel::L3;
  }
  return MemLevel::DRAM;
}

double CacheModel::per_thread_bw_gbs(MemLevel level,
                                     const machine::PlacementView& stats,
                                     int nthreads) const {
  // The whole-machine memory derating (the VisionFive V1 anomaly) slows
  // the entire uncore, shared caches included.
  const double clock =
      m_.core.clock_ghz * m_.memory_derating;  // bytes/cycle -> GB/s
  switch (level) {
    case MemLevel::L1:
      return m_.l1d.bw_bytes_per_cycle * m_.core.clock_ghz;
    case MemLevel::L2: {
      const int sharers = std::max(1, stats.max_per_cluster);
      return m_.l2.bw_bytes_per_cycle * clock / sharers;
    }
    case MemLevel::L3: {
      if (!m_.l3.present()) {
        throw std::invalid_argument("per_thread_bw_gbs: no L3 on " + m_.name);
      }
      const int instances =
          std::max(1, m_.num_cores / std::max(1, m_.l3.shared_by));
      const int active = std::min(instances, nthreads);
      const double aggregate = m_.l3.bw_bytes_per_cycle * clock * active;
      // One thread cannot pull much more out of L3 than it can stream
      // from DRAM (miss-handling concurrency limits apply either way).
      return std::min(aggregate / nthreads, 3.0 * m_.core.stream_bw_gbs);
    }
    case MemLevel::DRAM:
      throw std::invalid_argument(
          "per_thread_bw_gbs: DRAM bandwidth comes from MemoryModel");
  }
  throw std::invalid_argument("per_thread_bw_gbs: bad level");
}

}  // namespace sgp::sim
