// Machine descriptors: the published microarchitectural facts about each
// CPU the paper benchmarks, in the form the performance model consumes.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace sgp::machine {

/// One level of the data-cache hierarchy.
struct CacheSpec {
  std::size_t size_bytes = 0;
  int line_bytes = 64;
  /// Number of cores sharing one instance of this level (1 = private).
  int shared_by = 1;
  /// Sustained bandwidth of one instance, bytes per core-clock cycle.
  double bw_bytes_per_cycle = 16.0;
  double latency_cycles = 4.0;

  bool present() const noexcept { return size_bytes > 0; }
};

/// SIMD/vector execution resources of a core.
struct VectorUnit {
  std::string isa;        ///< "RVV v0.7.1", "AVX2", "AVX512", "AVX"
  int width_bits = 128;
  bool fp32 = true;       ///< FP32 vector arithmetic supported
  bool fp64 = true;       ///< FP64 vector arithmetic supported
  /// Sustained fraction of ideal width-scaling actually achieved.
  double efficiency_fp32 = 0.5;
  double efficiency_fp64 = 0.5;

  int lanes(int elem_bits) const noexcept { return width_bits / elem_bits; }
};

/// Per-core execution resources.
struct CoreSpec {
  double clock_ghz = 2.0;
  int decode_width = 2;
  int issue_width = 2;
  bool out_of_order = false;
  int fp_pipes = 1;        ///< FP execution pipes
  bool fma = true;         ///< fused multiply-add supported
  int mem_ports = 1;       ///< load/store pipes
  /// Sustained fraction of peak scalar FP issue achieved on loop code
  /// (covers in-order stalls, branch cost, dependency chains).
  double scalar_eff = 0.5;
  /// Single-core achievable DRAM streaming bandwidth, GB/s (vector or
  /// wide-load code).
  double stream_bw_gbs = 6.0;
  /// Fraction of stream_bw_gbs a *scalar* code path sustains: scalar
  /// loads expose less memory-level parallelism than vector loads. The
  /// C920 is notably poor here, which is why the paper's stream class
  /// gains the most from vectorisation (Figure 2).
  double scalar_stream_derate = 1.0;
  std::optional<VectorUnit> vector;

  /// Sustained scalar FP ops per cycle.
  double scalar_flops_per_cycle() const noexcept {
    return fp_pipes * (fma ? 2.0 : 1.0) * scalar_eff;
  }
  /// Sustained vector FP ops per cycle for an element width, or 0 if the
  /// unit cannot vectorize that width.
  double vector_flops_per_cycle(int elem_bits) const noexcept {
    if (!vector) return 0.0;
    const bool ok = (elem_bits == 32 && vector->fp32) ||
                    (elem_bits == 64 && vector->fp64);
    if (!ok) return 0.0;
    const double eff = elem_bits == 32 ? vector->efficiency_fp32
                                       : vector->efficiency_fp64;
    return vector->lanes(elem_bits) * fp_pipes * (fma ? 2.0 : 1.0) * eff;
  }
};

/// A NUMA region: the cores it contains and its memory resources.
struct NumaRegion {
  std::vector<int> cores;    ///< hardware core ids, in id order
  int controllers = 1;       ///< DDR controllers serving this region
  double mem_bw_gbs = 25.6;  ///< aggregate sustained bandwidth
};

/// A complete socket/package description.
struct MachineDescriptor {
  std::string name;
  int num_cores = 1;
  CoreSpec core;
  CacheSpec l1d;
  CacheSpec l2;
  CacheSpec l3;  ///< size 0 when absent

  std::vector<NumaRegion> numa;
  /// Groups of cores sharing one L2 instance ("clusters" on the SG2042;
  /// singleton groups on machines with private L2).
  std::vector<std::vector<int>> clusters;

  double mem_latency_ns = 100.0;
  /// Max DRAM traffic one cluster can move through its mesh/bus port,
  /// GB/s; 0 = unlimited. This is the SG2042's key bottleneck: four cores
  /// behind one L2-to-mesh interface.
  double cluster_bw_gbs = 0.0;
  /// Bandwidth multiplier for touching a remote NUMA region.
  double remote_numa_penalty = 1.6;

  // --- synchronisation model ---
  double fork_join_us = 2.0;           ///< base cost of one parallel region
  double barrier_us_per_thread = 0.1;  ///< incremental per-thread cost
  /// Extra multiplier on sync cost per additional NUMA region spanned.
  double numa_span_sync_factor = 1.25;

  /// Memory oversubscription: once a region serves more than
  /// `oversubscribe_knee` threads, its total bandwidth is derated by
  /// 1/(1 + gamma * (n - knee)^2) — row-buffer thrashing / mesh
  /// contention. Harsh on the SG2042 (the knee sits at 8, half a
  /// region's cores: activating a region's second core-id block kills
  /// row locality), benign on the x86 parts (knee = region size).
  /// knee == 0 means "region core count" (no derate at full occupancy).
  double oversubscribe_gamma = 0.2;
  double oversubscribe_knee = 0.0;

  /// True when the L3 is a memory-side system cache on the mesh (the
  /// SG2042's 64 MB cache): L3-resident traffic then behaves like the
  /// DRAM system (per-region slices, knee derating, cluster port caps)
  /// rather than like a core-side cache.
  bool l3_memory_side = false;

  /// Whole-machine memory derating (1 = none). Encodes the VisionFive
  /// V1's unexplained slowdown, which the paper also could not explain.
  double memory_derating = 1.0;

  /// Coherence round-trip for contended atomics, ns.
  double atomic_rtt_ns = 40.0;

  // --- topology queries ---
  /// NUMA region index owning `core`, or -1.
  int numa_of_core(int core) const noexcept;
  /// Cluster index owning `core`, or -1.
  int cluster_of_core(int core) const noexcept;
  /// Aggregate machine DRAM bandwidth (sum over regions), GB/s.
  double total_mem_bw_gbs() const noexcept;
  /// Number of threads that saturate one region's controllers.
  double region_saturation_threads(std::size_t region) const;

  /// Throws std::invalid_argument if the descriptor is inconsistent
  /// (cores missing from NUMA map, overlapping clusters, ...).
  void validate() const;
};

/// The seven machines of the paper.
MachineDescriptor sg2042();
MachineDescriptor visionfive_v1();
MachineDescriptor visionfive_v2();
MachineDescriptor amd_rome();
MachineDescriptor intel_broadwell();
MachineDescriptor intel_icelake();
MachineDescriptor intel_sandybridge();

/// The AllWinner D1 (single XuanTie C906) from the paper's background
/// study [10]: an energy-efficiency core, but with RVV v0.7.1 — the
/// board where the U74 wins scalar and the C906 wins vectorised.
MachineDescriptor allwinner_d1();

/// All seven, SG2042 first.
std::vector<MachineDescriptor> all_machines();
/// The four x86 parts of Table 4, in the paper's order: one immutable
/// list built on first use, so callers may keep pointers into it.
const std::vector<MachineDescriptor>& x86_machines();

/// Builds singleton or k-wide clusters over contiguous core ids — the
/// topology the `cluster_width` shorthand of the INI form describes.
std::vector<std::vector<int>> contiguous_clusters(int num_cores, int width);

}  // namespace sgp::machine
