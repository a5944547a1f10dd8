#include "machine/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace sgp::machine {

namespace {

/// Region core list reordered so that consecutive picks land on distinct
/// L2 clusters (and on distinct contiguous id blocks first, matching the
/// paper's example: region 0 of the SG2042 yields 0, 16, 4, 20, 1, 17,
/// 5, 21, ...). `cluster_of` and `slot_of` map each core to its cluster
/// and to its position inside that cluster; `cluster_pos` (one slot per
/// cluster, -1 = not yet placed) receives each cluster's position inside
/// its block, in first-core order.
std::vector<int> cluster_cyclic_order(const std::vector<int>& region_cores,
                                      const std::vector<int>& cluster_of,
                                      const std::vector<int>& slot_of,
                                      std::vector<int>& cluster_pos) {
  struct Key {
    int slot;         ///< position of the core inside its cluster
    int cluster_pos;  ///< position of the cluster inside its block
    int block;        ///< contiguous id block within the region
    int at;           ///< position in region_cores (the stable tie-break)
  };
  std::vector<Key> keys;
  keys.reserve(region_cores.size());
  // Block index increases whenever ids stop being consecutive (the
  // SG2042 regions consist of two non-adjacent blocks of eight); each
  // block numbers its clusters from 0.
  std::vector<int> next_pos{0};
  for (std::size_t i = 0; i < region_cores.size(); ++i) {
    const auto c = static_cast<std::size_t>(region_cores[i]);
    if (i > 0 && region_cores[i] != region_cores[i - 1] + 1) {
      next_pos.push_back(0);
    }
    const int block = static_cast<int>(next_pos.size()) - 1;
    int& pos = cluster_pos[static_cast<std::size_t>(cluster_of[c])];
    if (pos < 0) pos = next_pos.back()++;
    keys.push_back(Key{slot_of[c], pos, block, static_cast<int>(i)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.slot != b.slot) return a.slot < b.slot;
    if (a.cluster_pos != b.cluster_pos) return a.cluster_pos < b.cluster_pos;
    if (a.block != b.block) return a.block < b.block;
    return a.at < b.at;
  });
  std::vector<int> out;
  out.reserve(keys.size());
  for (const auto& k : keys) {
    out.push_back(region_cores[static_cast<std::size_t>(k.at)]);
  }
  return out;
}

/// Round-robin over per-region orderings: pick position j from every
/// region in turn.
std::vector<int> round_robin(const std::vector<std::vector<int>>& per_region,
                             int nthreads) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(nthreads));
  std::size_t j = 0;
  while (static_cast<int>(out.size()) < nthreads) {
    bool any = false;
    for (const auto& region : per_region) {
      if (j < region.size()) {
        any = true;
        out.push_back(region[j]);
        if (static_cast<int>(out.size()) == nthreads) return out;
      }
    }
    if (!any) break;  // all regions exhausted (cannot happen if validated)
    ++j;
  }
  return out;
}

}  // namespace

std::vector<int> assign_cores(const MachineDescriptor& m, Placement p,
                              int nthreads) {
  if (nthreads < 1 || nthreads > m.num_cores) {
    throw std::invalid_argument("assign_cores: nthreads out of range for " +
                                m.name);
  }
  switch (p) {
    case Placement::Block: {
      std::vector<int> out(static_cast<std::size_t>(nthreads));
      for (int i = 0; i < nthreads; ++i) out[static_cast<std::size_t>(i)] = i;
      return out;
    }
    case Placement::CyclicNuma: {
      std::vector<std::vector<int>> per_region;
      per_region.reserve(m.numa.size());
      for (const auto& r : m.numa) per_region.push_back(r.cores);
      return round_robin(per_region, nthreads);
    }
    case Placement::ClusterCyclic: {
      // Flat core -> cluster and core -> slot tables, built in one pass.
      const auto cores = static_cast<std::size_t>(m.num_cores);
      std::vector<int> cluster_of(cores);
      std::vector<int> slot_of(cores);
      for (std::size_t cl = 0; cl < m.clusters.size(); ++cl) {
        const auto& members = m.clusters[cl];
        for (std::size_t k = 0; k < members.size(); ++k) {
          const auto c = static_cast<std::size_t>(members[k]);
          cluster_of[c] = static_cast<int>(cl);
          slot_of[c] = static_cast<int>(k);
        }
      }
      // Clusters never straddle regions, so one table serves them all.
      std::vector<int> cluster_pos(m.clusters.size(), -1);
      std::vector<std::vector<int>> per_region;
      per_region.reserve(m.numa.size());
      for (const auto& r : m.numa) {
        per_region.push_back(
            cluster_cyclic_order(r.cores, cluster_of, slot_of, cluster_pos));
      }
      return round_robin(per_region, nthreads);
    }
  }
  throw std::invalid_argument("assign_cores: unknown placement");
}

PlacementStats analyze(const MachineDescriptor& m,
                       const std::vector<int>& cores) {
  PlacementStats st;
  st.threads_per_numa.assign(m.numa.size(), 0);
  st.threads_per_cluster.assign(m.clusters.size(), 0);
  for (int c : cores) {
    const int r = m.numa_of_core(c);
    const int cl = m.cluster_of_core(c);
    if (r < 0 || cl < 0) {
      throw std::invalid_argument("analyze: core " + std::to_string(c) +
                                  " unknown on " + m.name);
    }
    ++st.threads_per_numa[static_cast<std::size_t>(r)];
    ++st.threads_per_cluster[static_cast<std::size_t>(cl)];
  }
  for (int n : st.threads_per_numa) {
    if (n > 0) ++st.regions_spanned;
    st.max_per_numa = std::max(st.max_per_numa, n);
  }
  for (int n : st.threads_per_cluster) {
    st.max_per_cluster = std::max(st.max_per_cluster, n);
  }
  return st;
}

}  // namespace sgp::machine
