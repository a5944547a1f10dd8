#include "machine/descriptor.hpp"

#include <algorithm>
#include <stdexcept>

namespace sgp::machine {

int MachineDescriptor::numa_of_core(int core) const noexcept {
  for (std::size_t r = 0; r < numa.size(); ++r) {
    const auto& cs = numa[r].cores;
    if (std::find(cs.begin(), cs.end(), core) != cs.end()) {
      return static_cast<int>(r);
    }
  }
  return -1;
}

int MachineDescriptor::cluster_of_core(int core) const noexcept {
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const auto& cs = clusters[c];
    if (std::find(cs.begin(), cs.end(), core) != cs.end()) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

double MachineDescriptor::total_mem_bw_gbs() const noexcept {
  double sum = 0.0;
  for (const auto& r : numa) sum += r.mem_bw_gbs;
  return sum;
}

double MachineDescriptor::region_saturation_threads(std::size_t region) const {
  if (region >= numa.size()) {
    throw std::out_of_range("region_saturation_threads: bad region");
  }
  const double per_core = core.stream_bw_gbs;
  if (per_core <= 0.0) return 1.0;
  return std::max(1.0, numa[region].mem_bw_gbs / per_core);
}

void MachineDescriptor::validate() const {
  if (num_cores <= 0) {
    throw std::invalid_argument(name + ": num_cores must be positive");
  }
  if (core.clock_ghz <= 0.0) {
    throw std::invalid_argument(name + ": clock must be positive");
  }
  if (numa.empty()) {
    throw std::invalid_argument(name + ": no NUMA regions");
  }
  // One flat core -> region table (-1 = unlisted) does the duplicate
  // check, the coverage count and the straddle check, so validation is
  // O(cores) with the same first-failure order as a per-core search.
  std::vector<int> region_of(static_cast<std::size_t>(num_cores), -1);
  int listed = 0;
  for (std::size_t r = 0; r < numa.size(); ++r) {
    if (numa[r].cores.empty()) {
      throw std::invalid_argument(name + ": empty NUMA region");
    }
    for (int c : numa[r].cores) {
      if (c < 0 || c >= num_cores) {
        throw std::invalid_argument(name + ": NUMA core id out of range");
      }
      int& owner = region_of[static_cast<std::size_t>(c)];
      if (owner >= 0) {
        throw std::invalid_argument(name + ": core in two NUMA regions");
      }
      owner = static_cast<int>(r);
      ++listed;
    }
  }
  if (listed != num_cores) {
    throw std::invalid_argument(name + ": cores missing from NUMA map");
  }
  std::vector<char> clustered(static_cast<std::size_t>(num_cores), 0);
  listed = 0;
  for (const auto& cl : clusters) {
    if (cl.empty()) {
      throw std::invalid_argument(name + ": empty cluster");
    }
    for (int c : cl) {
      if (c < 0 || c >= num_cores) {
        throw std::invalid_argument(name + ": cluster core id out of range");
      }
      char& seen = clustered[static_cast<std::size_t>(c)];
      if (seen) {
        throw std::invalid_argument(name + ": core in two clusters");
      }
      seen = 1;
      ++listed;
    }
    // A cluster must not straddle NUMA regions.
    const int region = region_of[static_cast<std::size_t>(cl.front())];
    for (int c : cl) {
      if (region_of[static_cast<std::size_t>(c)] != region) {
        throw std::invalid_argument(name + ": cluster straddles NUMA regions");
      }
    }
  }
  if (listed != num_cores) {
    throw std::invalid_argument(name + ": cores missing from cluster map");
  }
  if (!l1d.present() || !l2.present()) {
    throw std::invalid_argument(name + ": L1D and L2 are required");
  }
  // shared_by need not equal the cluster width (the L2 capacity model
  // divides by the actual cluster population, see sim/cache_model.cpp);
  // it must merely be a sensible sharer count.
  if (l1d.shared_by < 1 || l2.shared_by < 1 ||
      (l3.present() && l3.shared_by < 1)) {
    throw std::invalid_argument(name + ": cache shared_by must be >= 1");
  }
  if (memory_derating <= 0.0 || memory_derating > 1.0) {
    throw std::invalid_argument(name + ": memory_derating must be in (0,1]");
  }
}

std::vector<std::vector<int>> contiguous_clusters(int num_cores, int width) {
  std::vector<std::vector<int>> out;
  for (int base = 0; base < num_cores; base += width) {
    std::vector<int> cl;
    for (int i = 0; i < width && base + i < num_cores; ++i) {
      cl.push_back(base + i);
    }
    out.push_back(std::move(cl));
  }
  return out;
}

namespace {

std::vector<int> id_range(int first, int last) {
  std::vector<int> out;
  for (int i = first; i <= last; ++i) out.push_back(i);
  return out;
}

std::vector<int> concat(std::vector<int> a, const std::vector<int>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

MachineDescriptor sg2042() {
  MachineDescriptor m;
  m.name = "Sophon SG2042";
  m.num_cores = 64;

  CoreSpec c;
  c.clock_ghz = 2.0;
  c.decode_width = 3;   // C920: 3 decode
  c.issue_width = 8;    // 8 issue/execute units
  c.out_of_order = true;
  c.fp_pipes = 2;
  c.fma = true;
  c.mem_ports = 2;      // 2 load/store units
  c.scalar_eff = 0.50;
  c.stream_bw_gbs = 6.0;
  c.scalar_stream_derate = 0.50;
  VectorUnit v;
  v.isa = "RVV v0.7.1";
  v.width_bits = 128;
  v.fp32 = true;
  v.fp64 = false;  // the paper's central finding: no FP64 vectorisation
  v.efficiency_fp32 = 0.40;
  v.efficiency_fp64 = 0.0;
  c.vector = v;
  m.core = c;

  m.l1d = CacheSpec{64 * 1024, 64, 1, 32.0, 4.0};
  m.l2 = CacheSpec{1024 * 1024, 64, 4, 24.0, 20.0};   // 1 MB per 4-core cluster
  // Memory-side system cache: 40 B/cycle aggregate = 80 GB/s, split
  // into four per-NUMA-region slices by the memory model.
  m.l3 = CacheSpec{64UL * 1024 * 1024, 64, 64, 40.0, 80.0};

  // The paper's lscpu finding: NUMA region r holds two non-adjacent blocks
  // of eight consecutive core ids.
  m.numa = {
      NumaRegion{concat(id_range(0, 7), id_range(16, 23)), 1, 25.6},
      NumaRegion{concat(id_range(8, 15), id_range(24, 31)), 1, 25.6},
      NumaRegion{concat(id_range(32, 39), id_range(48, 55)), 1, 25.6},
      NumaRegion{concat(id_range(40, 47), id_range(56, 63)), 1, 25.6},
  };
  m.clusters = contiguous_clusters(64, 4);

  m.mem_latency_ns = 130.0;
  m.cluster_bw_gbs = 6.0;       // one L2-to-mesh port per 4-core cluster
  m.remote_numa_penalty = 1.8;
  m.fork_join_us = 4.0;
  m.barrier_us_per_thread = 0.05;
  m.numa_span_sync_factor = 1.25;
  m.oversubscribe_gamma = 0.15;
  m.oversubscribe_knee = 8.0;   // a region's second core-id block
  m.l3_memory_side = true;
  m.atomic_rtt_ns = 90.0;
  return m;
}

namespace {

/// Shared SiFive U74 core + board shape of the two VisionFive boards.
MachineDescriptor visionfive_common(std::string name, int cores) {
  MachineDescriptor m;
  m.name = std::move(name);
  m.num_cores = cores;

  CoreSpec c;
  c.clock_ghz = 1.5;
  c.decode_width = 2;   // U74: dual-issue in-order
  c.issue_width = 2;
  c.out_of_order = false;
  c.fp_pipes = 1;
  c.fma = true;
  c.mem_ports = 1;
  c.scalar_eff = 0.33;
  c.stream_bw_gbs = 0.7;  // measured-class LPDDR4 board bandwidth
  c.vector = std::nullopt;  // RV64GC only, no RVV
  m.core = c;

  m.l1d = CacheSpec{32 * 1024, 64, 1, 16.0, 3.0};
  m.l2 = CacheSpec{2 * 1024 * 1024, 64, cores, 8.0, 25.0};  // shared by all
  m.l3 = CacheSpec{};  // none

  NumaRegion r;
  r.cores = id_range(0, cores - 1);
  r.controllers = 1;
  r.mem_bw_gbs = 2.0;  // LPDDR4 board memory, sustained
  m.numa = {r};
  m.clusters = {id_range(0, cores - 1)};
  m.l2.shared_by = cores;

  m.mem_latency_ns = 160.0;
  m.remote_numa_penalty = 1.0;
  m.fork_join_us = 4.0;
  m.barrier_us_per_thread = 1.5;
  m.oversubscribe_gamma = 0.4;
  m.atomic_rtt_ns = 60.0;
  return m;
}

}  // namespace

MachineDescriptor visionfive_v1() {
  auto m = visionfive_common("StarFive VisionFive V1", 2);
  // The paper measured the V1 3-6x slower than the V2 at FP64 despite the
  // identical U74 core and listed clock, and could not explain it. We
  // encode the observed derating on the memory subsystem and a reduced
  // effective core efficiency, and flag it as unexplained.
  m.memory_derating = 0.30;
  m.core.scalar_eff = 0.12;
  return m;
}

MachineDescriptor visionfive_v2() {
  return visionfive_common("StarFive VisionFive V2", 4);
}

MachineDescriptor amd_rome() {
  MachineDescriptor m;
  m.name = "AMD Rome EPYC 7742";
  m.num_cores = 64;

  CoreSpec c;
  c.clock_ghz = 2.25;
  c.decode_width = 4;
  c.issue_width = 8;
  c.out_of_order = true;
  c.fp_pipes = 2;
  c.fma = true;
  c.mem_ports = 3;
  c.scalar_eff = 0.55;
  c.stream_bw_gbs = 22.0;
  c.scalar_stream_derate = 0.85;
  VectorUnit v;
  v.isa = "AVX2";
  v.width_bits = 256;
  v.fp32 = true;
  v.fp64 = true;
  // The paper observed Rome to be "fairly lacklustre" at FP32 relative to
  // its FP64 showing; encoded as a lower sustained FP32 vector efficiency.
  v.efficiency_fp32 = 0.28;
  v.efficiency_fp64 = 0.45;
  c.vector = v;
  m.core = c;

  m.l1d = CacheSpec{32 * 1024, 64, 1, 64.0, 4.0};
  m.l2 = CacheSpec{512 * 1024, 64, 1, 32.0, 12.0};
  m.l3 = CacheSpec{16UL * 1024 * 1024, 64, 4, 32.0, 40.0};  // per-CCX 16 MB

  // 4 NUMA regions (NPS4) of 16 contiguous cores; 8 controllers total.
  for (int r = 0; r < 4; ++r) {
    m.numa.push_back(
        NumaRegion{id_range(16 * r, 16 * r + 15), 2, 2 * 23.0});
  }
  m.clusters = contiguous_clusters(64, 1);
  m.l2.shared_by = 1;

  m.mem_latency_ns = 95.0;
  m.remote_numa_penalty = 1.5;
  m.fork_join_us = 1.2;
  m.barrier_us_per_thread = 0.12;
  m.numa_span_sync_factor = 1.15;
  m.oversubscribe_gamma = 0.08;
  m.atomic_rtt_ns = 45.0;
  return m;
}

MachineDescriptor intel_broadwell() {
  MachineDescriptor m;
  m.name = "Intel Broadwell Xeon E5-2695";
  m.num_cores = 18;

  CoreSpec c;
  c.clock_ghz = 2.1;
  c.decode_width = 4;
  c.issue_width = 8;
  c.out_of_order = true;
  c.fp_pipes = 2;
  c.fma = true;
  c.mem_ports = 3;
  c.scalar_eff = 0.50;
  c.stream_bw_gbs = 12.0;
  c.scalar_stream_derate = 0.85;
  VectorUnit v;
  v.isa = "AVX2";
  v.width_bits = 256;
  v.fp32 = true;
  v.fp64 = true;
  v.efficiency_fp32 = 0.50;
  v.efficiency_fp64 = 0.50;
  c.vector = v;
  m.core = c;

  m.l1d = CacheSpec{32 * 1024, 64, 1, 64.0, 4.0};
  m.l2 = CacheSpec{256 * 1024, 64, 1, 32.0, 12.0};
  m.l3 = CacheSpec{45UL * 1024 * 1024, 64, 18, 120.0, 45.0};

  m.numa = {NumaRegion{id_range(0, 17), 4, 62.0}};
  m.clusters = contiguous_clusters(18, 1);
  m.l2.shared_by = 1;

  m.mem_latency_ns = 85.0;
  m.remote_numa_penalty = 1.0;
  m.fork_join_us = 1.0;
  m.barrier_us_per_thread = 0.10;
  m.oversubscribe_gamma = 0.10;
  m.atomic_rtt_ns = 35.0;
  return m;
}

MachineDescriptor intel_icelake() {
  MachineDescriptor m;
  m.name = "Intel Icelake Xeon 6330";
  m.num_cores = 28;

  CoreSpec c;
  c.clock_ghz = 2.0;
  c.decode_width = 5;
  c.issue_width = 10;
  c.out_of_order = true;
  c.fp_pipes = 2;
  c.fma = true;
  c.mem_ports = 4;
  c.scalar_eff = 0.50;
  c.stream_bw_gbs = 18.0;
  c.scalar_stream_derate = 0.85;
  VectorUnit v;
  v.isa = "AVX512";
  v.width_bits = 512;
  v.fp32 = true;
  v.fp64 = true;
  v.efficiency_fp32 = 0.30;
  v.efficiency_fp64 = 0.36;
  c.vector = v;
  m.core = c;

  m.l1d = CacheSpec{48 * 1024, 64, 1, 96.0, 5.0};
  m.l2 = CacheSpec{1280 * 1024, 64, 1, 48.0, 14.0};
  m.l3 = CacheSpec{43UL * 1024 * 1024, 64, 28, 160.0, 50.0};

  m.numa = {NumaRegion{id_range(0, 27), 8, 150.0}};
  m.clusters = contiguous_clusters(28, 1);
  m.l2.shared_by = 1;

  m.mem_latency_ns = 90.0;
  m.remote_numa_penalty = 1.0;
  m.fork_join_us = 1.0;
  m.barrier_us_per_thread = 0.10;
  m.oversubscribe_gamma = 0.08;
  m.atomic_rtt_ns = 35.0;
  return m;
}

MachineDescriptor intel_sandybridge() {
  MachineDescriptor m;
  m.name = "Intel Sandybridge Xeon E5-2609";
  m.num_cores = 4;

  CoreSpec c;
  c.clock_ghz = 2.4;
  c.decode_width = 4;
  c.issue_width = 6;
  c.out_of_order = true;
  c.fp_pipes = 2;
  c.fma = false;  // pre-FMA microarchitecture
  c.mem_ports = 2;
  c.scalar_eff = 0.45;
  c.stream_bw_gbs = 2.8;
  c.scalar_stream_derate = 0.90;
  VectorUnit v;
  // Physically AVX is 256-bit for FP; the paper states the E5-2609's
  // registers are the same width as the SG2042 (128-bit) and we follow
  // the paper (see DESIGN.md "Known deviations").
  v.isa = "AVX";
  v.width_bits = 128;
  v.fp32 = true;
  v.fp64 = true;
  v.efficiency_fp32 = 0.50;
  v.efficiency_fp64 = 0.50;
  c.vector = v;
  m.core = c;

  m.l1d = CacheSpec{64 * 1024, 64, 1, 48.0, 4.0};  // per the paper's text
  m.l2 = CacheSpec{256 * 1024, 64, 1, 32.0, 12.0};
  m.l3 = CacheSpec{10UL * 1024 * 1024, 64, 4, 40.0, 40.0};

  m.numa = {NumaRegion{id_range(0, 3), 4, 25.0}};
  m.clusters = contiguous_clusters(4, 1);
  m.l2.shared_by = 1;

  m.mem_latency_ns = 80.0;
  m.remote_numa_penalty = 1.0;
  m.fork_join_us = 0.8;
  m.barrier_us_per_thread = 0.10;
  m.oversubscribe_gamma = 0.12;
  m.atomic_rtt_ns = 30.0;
  return m;
}

MachineDescriptor allwinner_d1() {
  MachineDescriptor m;
  m.name = "AllWinner D1 (XuanTie C906)";
  m.num_cores = 1;

  CoreSpec c;
  c.clock_ghz = 1.0;
  c.decode_width = 2;  // C906: dual-issue in-order, 5-stage
  c.issue_width = 2;
  c.out_of_order = false;
  c.fp_pipes = 1;
  c.fma = true;
  c.mem_ports = 1;
  // Designed for energy efficiency, not performance [13]: scalar code
  // runs noticeably behind the U74.
  c.scalar_eff = 0.22;
  c.stream_bw_gbs = 1.0;
  c.scalar_stream_derate = 0.55;
  VectorUnit v;
  v.isa = "RVV v0.7.1";
  v.width_bits = 128;
  v.fp32 = true;
  v.fp64 = false;  // same generation as the C920's vector unit
  v.efficiency_fp32 = 0.35;
  v.efficiency_fp64 = 0.0;
  c.vector = v;
  m.core = c;

  m.l1d = CacheSpec{32 * 1024, 64, 1, 8.0, 3.0};
  m.l2 = CacheSpec{1024 * 1024, 64, 1, 4.0, 30.0};
  m.l3 = CacheSpec{};

  m.numa = {NumaRegion{{0}, 1, 1.6}};
  m.clusters = {{0}};
  m.l2.shared_by = 1;

  m.mem_latency_ns = 180.0;
  m.remote_numa_penalty = 1.0;
  m.fork_join_us = 4.0;
  m.barrier_us_per_thread = 2.0;
  m.oversubscribe_gamma = 0.4;
  m.atomic_rtt_ns = 70.0;
  return m;
}

std::vector<MachineDescriptor> all_machines() {
  return {sg2042(),        visionfive_v1(),    visionfive_v2(), amd_rome(),
          intel_broadwell(), intel_icelake(), intel_sandybridge()};
}

const std::vector<MachineDescriptor>& x86_machines() {
  static const std::vector<MachineDescriptor> machines{
      amd_rome(), intel_broadwell(), intel_icelake(), intel_sandybridge()};
  return machines;
}

}  // namespace sgp::machine
