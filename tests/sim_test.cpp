// Tests for the performance model: cache level selection, memory
// bandwidth sharing, core pricing and the simulator's invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "check/fuzz.hpp"
#include "compiler/model.hpp"
#include "kernels/register_all.hpp"
#include "machine/registry.hpp"
#include "sim/cache_model.hpp"
#include "sim/core_model.hpp"
#include "sim/memory_model.hpp"
#include "sim/pattern.hpp"
#include "sim/simulator.hpp"
#include "sim/sync_model.hpp"

namespace sgp::sim {
namespace {

using core::CompilerId;
using core::Precision;
using core::VectorMode;
using machine::Placement;

machine::PlacementStats stats_for(const machine::MachineDescriptor& m,
                                  Placement p, int t) {
  return machine::analyze(m, machine::assign_cores(m, p, t));
}

// -------------------------------------------------------- CacheModel --
TEST(CacheModel, ServingLevelMonotoneInWorkingSet) {
  const auto m = machine::sg2042();
  const CacheModel cm(m);
  const auto st = stats_for(m, Placement::Block, 1);
  const auto l_small = cm.serving_level(16.0 * 1024, st, 1);
  const auto l_mid = cm.serving_level(600.0 * 1024, st, 1);
  const auto l_big = cm.serving_level(30e6, st, 1);
  const auto l_huge = cm.serving_level(100e6, st, 1);
  EXPECT_EQ(l_small, MemLevel::L1);
  EXPECT_EQ(l_mid, MemLevel::L2);
  EXPECT_EQ(l_big, MemLevel::L3);
  EXPECT_EQ(l_huge, MemLevel::DRAM);
}

TEST(CacheModel, ClusterOccupancyShrinksEffectiveL2) {
  const auto m = machine::sg2042();
  const CacheModel cm(m);
  // 600 KB per thread: fits the 1 MB cluster L2 alone, not with four
  // active cores in the cluster.
  const double ws4 = 600.0 * 1024 * 4;  // 4 threads x 600 KB
  const auto alone = cm.serving_level(
      ws4, stats_for(m, Placement::ClusterCyclic, 4), 4);
  const auto packed =
      cm.serving_level(ws4, stats_for(m, Placement::Block, 4), 4);
  EXPECT_EQ(alone, MemLevel::L2);
  EXPECT_NE(packed, MemLevel::L2);
}

TEST(CacheModel, ThreadsPartitionTheWorkingSet) {
  const auto m = machine::sg2042();
  const CacheModel cm(m);
  const double ws = 8e6;  // 8 MB total
  EXPECT_EQ(cm.serving_level(ws, stats_for(m, Placement::Block, 1), 1),
            MemLevel::L3);
  // 64 threads -> 125 KB each: too big for the 64 KB L1, but four
  // slices (500 KB) fit each cluster's 1 MB L2.
  EXPECT_EQ(cm.serving_level(ws, stats_for(m, Placement::Block, 64), 64),
            MemLevel::L2);
}

TEST(CacheModel, MachinesWithoutL3GoStraightToDram) {
  const auto m = machine::visionfive_v2();
  const CacheModel cm(m);
  const auto st = stats_for(m, Placement::Block, 1);
  EXPECT_EQ(cm.serving_level(100e6, st, 1), MemLevel::DRAM);
}

TEST(CacheModel, DramBandwidthIsRejected) {
  const auto m = machine::sg2042();
  const CacheModel cm(m);
  const auto st = stats_for(m, Placement::Block, 1);
  EXPECT_THROW((void)cm.per_thread_bw_gbs(MemLevel::DRAM, st, 1),
               std::invalid_argument);
}

TEST(CacheModel, L2BandwidthSharedByClusterOccupants) {
  const auto m = machine::sg2042();
  const CacheModel cm(m);
  const double alone = cm.per_thread_bw_gbs(
      MemLevel::L2, stats_for(m, Placement::ClusterCyclic, 4), 4);
  const double packed = cm.per_thread_bw_gbs(
      MemLevel::L2, stats_for(m, Placement::Block, 4), 4);
  EXPECT_NEAR(alone, 4.0 * packed, 1e-9);
}

// ------------------------------------------------------- MemoryModel --
TEST(MemoryModel, BandwidthRampsThenSaturates) {
  const auto m = machine::sg2042();
  const MemoryModel mm(m);
  const double one = mm.region_bandwidth_gbs(0, 1, SharedLevel::Dram);
  const double four = mm.region_bandwidth_gbs(0, 4, SharedLevel::Dram);
  const double eight = mm.region_bandwidth_gbs(0, 8, SharedLevel::Dram);
  EXPECT_GT(four, one);
  EXPECT_GE(eight, four * 0.99);
  EXPECT_LE(eight, m.numa[0].mem_bw_gbs + 1e-9);
}

TEST(MemoryModel, OversubscriptionDeclinesPastTheKnee) {
  const auto m = machine::sg2042();  // knee = 8 per region
  const MemoryModel mm(m);
  const double at_knee = mm.region_bandwidth_gbs(0, 8, SharedLevel::Dram);
  const double beyond = mm.region_bandwidth_gbs(0, 16, SharedLevel::Dram);
  EXPECT_LT(beyond, at_knee);
  // The paper's collapse: 16 threads per region deliver far less than 8.
  EXPECT_LT(beyond, 0.3 * at_knee);
}

TEST(MemoryModel, X86HasNoKneeCollapse) {
  const auto m = machine::amd_rome();  // knee defaults to region size
  const MemoryModel mm(m);
  const double at8 = mm.region_bandwidth_gbs(0, 8, SharedLevel::Dram);
  const double at16 = mm.region_bandwidth_gbs(0, 16, SharedLevel::Dram);
  EXPECT_GE(at16, at8 * 0.99);
}

TEST(MemoryModel, ClusterPortCapsPerThreadBandwidth) {
  const auto m = machine::sg2042();
  const MemoryModel mm(m);
  // Block-4: one cluster, one region.
  const double packed = mm.per_thread_bw_gbs(
      stats_for(m, Placement::Block, 4), 4, SharedLevel::Dram);
  const double spread = mm.per_thread_bw_gbs(
      stats_for(m, Placement::ClusterCyclic, 4), 4, SharedLevel::Dram);
  EXPECT_NEAR(packed, m.cluster_bw_gbs / 4.0, 1e-9);
  EXPECT_GT(spread, 3.0 * packed);

  // Uneven ClusterCyclic placements (some clusters hold one thread more
  // than others): the cap comes from the fullest cluster, bit for bit
  // the value of a walk over every occupied cluster.
  for (const int t : {20, 36, 50}) {
    const auto st = stats_for(m, Placement::ClusterCyclic, t);
    int least = t;
    for (const int k : st.threads_per_cluster) {
      if (k > 0) least = std::min(least, k);
    }
    ASSERT_LT(least, st.max_per_cluster) << t;
    for (const auto level : {SharedLevel::Dram, SharedLevel::MemorySideL3}) {
      double walk = m.core.stream_bw_gbs;
      for (std::size_t r = 0; r < st.threads_per_numa.size(); ++r) {
        const int n = st.threads_per_numa[r];
        if (n > 0) walk = std::min(walk, mm.region_bandwidth_gbs(r, n, level) / n);
      }
      for (const int k : st.threads_per_cluster) {
        if (k > 0) walk = std::min(walk, m.cluster_bw_gbs / k);
      }
      EXPECT_EQ(mm.per_thread_bw_gbs(st, t, level), walk * m.memory_derating)
          << t;
    }
  }
}

TEST(MemoryModel, MemorySideL3SlicesAcrossRegions) {
  const auto m = machine::sg2042();
  const MemoryModel mm(m);
  const double slice = mm.region_bandwidth_gbs(0, 8, SharedLevel::MemorySideL3);
  const double aggregate = m.l3.bw_bytes_per_cycle * m.core.clock_ghz;
  EXPECT_LE(slice, aggregate / 4.0 + 1e-9);
  EXPECT_GT(slice, 0.0);
}

TEST(MemoryModel, RegionPeakBoundsCheckedOnBothLevelPaths) {
  // The DRAM path used to index m_.numa[region] unchecked: public misuse
  // must throw out_of_range instead of reading past the array.
  const auto m = machine::sg2042();
  const MemoryModel mm(m);
  EXPECT_THROW((void)mm.region_peak_gbs(4, SharedLevel::Dram),
               std::out_of_range);
  EXPECT_THROW((void)mm.region_peak_gbs(99, SharedLevel::MemorySideL3),
               std::out_of_range);
  EXPECT_THROW((void)mm.region_bandwidth_gbs(4, 1, SharedLevel::Dram),
               std::out_of_range);
  EXPECT_DOUBLE_EQ(mm.region_peak_gbs(0, SharedLevel::Dram),
                   m.numa[0].mem_bw_gbs);
  EXPECT_GT(mm.region_peak_gbs(3, SharedLevel::MemorySideL3), 0.0);
}

TEST(MemoryModel, DeratingAppliesToV1) {
  const auto v1 = machine::visionfive_v1();
  const auto v2 = machine::visionfive_v2();
  const MemoryModel m1(v1), m2(v2);
  const auto s1 = stats_for(v1, Placement::Block, 1);
  const auto s2 = stats_for(v2, Placement::Block, 1);
  EXPECT_LT(m1.per_thread_bw_gbs(s1, 1, SharedLevel::Dram),
            m2.per_thread_bw_gbs(s2, 1, SharedLevel::Dram));
}

// --------------------------------------------------------- CoreModel --
TEST(CoreModel, VectorPathIsFasterOnVectorisableKernels) {
  const auto m = machine::sg2042();
  const CoreModel cm(m);
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto scalar = compiler::plan(sig, Precision::FP32, CompilerId::Gcc,
                                     VectorMode::Scalar, m);
  const auto vec = compiler::plan(sig, Precision::FP32, CompilerId::Gcc,
                                  VectorMode::VLS, m);
  EXPECT_LT(cm.cycles_per_iteration(sig, vec, Precision::FP32)
                .cycles_per_iter,
            cm.cycles_per_iteration(sig, scalar, Precision::FP32)
                .cycles_per_iter);
}

TEST(CoreModel, DividesAreExpensive) {
  const auto m = machine::sg2042();
  const CoreModel cm(m);
  auto cheap = *kernels::find_signature("TRIAD");
  auto costly = cheap;
  costly.mix.fdiv = 2.0;
  const auto plan = compiler::plan(cheap, Precision::FP64, CompilerId::Gcc,
                                   VectorMode::Scalar, m);
  EXPECT_GT(cm.cycles_per_iteration(costly, plan, Precision::FP64)
                .cycles_per_iter,
            2.0 * cm.cycles_per_iteration(cheap, plan, Precision::FP64)
                      .cycles_per_iter);
}

TEST(CoreModel, RecurrencePatternsPayIlpDerating) {
  EXPECT_GT(pattern_ilp_derating(core::AccessPattern::Sequential, true), 2.0);
  EXPECT_GE(pattern_ilp_derating(core::AccessPattern::Sequential, false),
            pattern_ilp_derating(core::AccessPattern::Sequential, true));
  EXPECT_DOUBLE_EQ(
      pattern_ilp_derating(core::AccessPattern::Streaming, true), 1.0);
}

TEST(PatternBandwidth, GatherWastesLines) {
  EXPECT_LT(pattern_bandwidth_efficiency(core::AccessPattern::Gather),
            pattern_bandwidth_efficiency(core::AccessPattern::Strided));
  EXPECT_DOUBLE_EQ(
      pattern_bandwidth_efficiency(core::AccessPattern::Streaming), 1.0);
}

// --------------------------------------------------------- SyncModel --
TEST(SyncModel, SerialHasNoSyncCost) {
  const auto m = machine::sg2042();
  const SyncModel sm(m);
  const auto& sig = *kernels::find_signature("TRIAD");
  EXPECT_DOUBLE_EQ(
      sm.seconds_per_rep(sig, stats_for(m, Placement::Block, 1), 1), 0.0);
}

TEST(SyncModel, CostGrowsWithThreadsAndRegions) {
  const auto m = machine::sg2042();
  const SyncModel sm(m);
  const auto& sig = *kernels::find_signature("TRIAD");
  const double two =
      sm.seconds_per_rep(sig, stats_for(m, Placement::Block, 2), 2);
  const double many =
      sm.seconds_per_rep(sig, stats_for(m, Placement::Block, 64), 64);
  EXPECT_GT(two, 0.0);
  EXPECT_GT(many, two);
  // Spanning four NUMA regions costs more than staying in one.
  const double spread =
      sm.seconds_per_rep(sig, stats_for(m, Placement::CyclicNuma, 4), 4);
  const double packed =
      sm.seconds_per_rep(sig, stats_for(m, Placement::Block, 4), 4);
  EXPECT_GT(spread, packed);
}

TEST(SyncModel, ManyRegionKernelsPayMore) {
  const auto m = machine::sg2042();
  const SyncModel sm(m);
  const auto st = stats_for(m, Placement::Block, 8);
  // 1 and 78 regions/rep.
  const auto& one_region = *kernels::find_signature("TRIAD");
  const auto& many_regions = *kernels::find_signature("HALO_PACKING");
  EXPECT_GT(sm.seconds_per_rep(many_regions, st, 8),
            50.0 * sm.seconds_per_rep(one_region, st, 8));
}

// --------------------------------------------------------- Simulator --
TEST(Simulator, ValidatesConfig) {
  const Simulator sim(machine::sg2042());
  SimConfig cfg;
  cfg.nthreads = 0;
  EXPECT_THROW((void)sim.run(*kernels::find_signature("TRIAD"), cfg),
               std::invalid_argument);
  cfg.nthreads = 65;
  EXPECT_THROW((void)sim.run(*kernels::find_signature("TRIAD"), cfg),
               std::invalid_argument);
}

TEST(Simulator, TimesArePositiveAndFinite) {
  const Simulator sim(machine::sg2042());
  SimConfig cfg;
  for (const auto& sig : kernels::all_signatures()) {
    const auto bd = sim.run(sig, cfg);
    EXPECT_GT(bd.total_s, 0.0) << sig.name;
    EXPECT_TRUE(std::isfinite(bd.total_s)) << sig.name;
    EXPECT_GE(bd.total_s, bd.compute_s) << sig.name;
  }
}

TEST(Simulator, ComputeBoundKernelsScaleWithThreads) {
  const Simulator sim(machine::sg2042());
  SimConfig c1, c16;
  c1.precision = c16.precision = Precision::FP32;
  c16.nthreads = 16;
  c16.placement = Placement::ClusterCyclic;
  const auto& sig = *kernels::find_signature("GEMM");
  const double t1 = sim.seconds(sig, c1);
  const double t16 = sim.seconds(sig, c16);
  EXPECT_GT(t1 / t16, 8.0);
}

TEST(Simulator, ContendedAtomicsAreCatastrophicMultithreaded) {
  const Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("PI_ATOMIC");
  SimConfig c1, c8;
  c8.nthreads = 8;
  c8.placement = Placement::ClusterCyclic;
  EXPECT_GT(sim.seconds(sig, c8), sim.seconds(sig, c1));
}

TEST(Simulator, Fp64OnC920DoesNotBenefitFromVectorisation) {
  const Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");
  SimConfig vec, sca;
  vec.precision = sca.precision = Precision::FP64;
  vec.vector_mode = VectorMode::VLS;
  sca.vector_mode = VectorMode::Scalar;
  EXPECT_GE(sim.seconds(sig, vec), sim.seconds(sig, sca));
}

TEST(Simulator, Fp32OnC920DoesBenefitFromVectorisation) {
  const Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");
  SimConfig vec, sca;
  vec.precision = sca.precision = Precision::FP32;
  vec.vector_mode = VectorMode::VLS;
  sca.vector_mode = VectorMode::Scalar;
  EXPECT_LT(sim.seconds(sig, vec), 0.7 * sim.seconds(sig, sca));
}

TEST(Simulator, BreakdownLabelsServingLevel) {
  const Simulator sim(machine::sg2042());
  SimConfig cfg;
  const auto small = sim.run(*kernels::find_signature("PI_REDUCE"), cfg);
  EXPECT_EQ(small.serving, MemLevel::L1);
  const auto big = sim.run(*kernels::find_signature("TRIAD"), cfg);
  EXPECT_TRUE(big.serving == MemLevel::L3 || big.serving == MemLevel::DRAM);
}

TEST(Simulator, DeterministicResults) {
  const Simulator sim(machine::amd_rome());
  SimConfig cfg;
  cfg.nthreads = 32;
  const auto& sig = *kernels::find_signature("HYDRO_2D");
  EXPECT_DOUBLE_EQ(sim.seconds(sig, cfg), sim.seconds(sig, cfg));
}

// Checks every (placement, nthreads) row of the constructor's
// incremental tables against the analyze(assign_cores(...)) reference,
// field by field; returns the number of rows compared.
int expect_placement_tables_match(const machine::MachineDescriptor& m) {
  const Simulator sim(m);
  int rows = 0;
  for (const auto p : machine::all_placements) {
    for (int n = 1; n <= m.num_cores; ++n) {
      const auto& got = sim.placement_stats(p, n);
      const auto want = stats_for(m, p, n);
      const auto where = [&] {
        return m.name + " " + std::string(machine::to_string(p)) + " n=" +
               std::to_string(n);
      };
      EXPECT_EQ(std::vector<int>(got.threads_per_numa.begin(),
                                 got.threads_per_numa.end()),
                want.threads_per_numa)
          << where();
      EXPECT_EQ(std::vector<int>(got.threads_per_cluster.begin(),
                                 got.threads_per_cluster.end()),
                want.threads_per_cluster)
          << where();
      EXPECT_EQ(got.regions_spanned, want.regions_spanned) << where();
      EXPECT_EQ(got.max_per_numa, want.max_per_numa) << where();
      EXPECT_EQ(got.max_per_cluster, want.max_per_cluster) << where();
      ++rows;
    }
  }
  return rows;
}

TEST(Simulator, PlacementTablesMatchAnalyzeOnRegisteredMachines) {
  machine::MachineRegistry reg;
  machine::register_builtin_machines(reg);
  const auto report = reg.register_ini_dir(SGP_MACHINES_DIR);
  for (const auto& err : report.errors) {
    ADD_FAILURE() << err.file << ": " << err.message;
  }
  ASSERT_GE(report.loaded.size(), 2u) << "machines/*.ini packs not found";
  int rows = 0;
  for (const auto& name : reg.names()) {
    rows += expect_placement_tables_match(reg.descriptor(name));
  }
  // 3 placements x the core counts of the 8 built-ins and the shipped
  // packs (sg2044: 64, sg2042-2s: 128).
  EXPECT_EQ(rows, 1131);
}

TEST(Simulator, PlacementTablesMatchAnalyzeOnRandomMachines) {
  for (unsigned seed = 1; seed <= 64; ++seed) {
    expect_placement_tables_match(check::random_machine(seed));
  }
}

}  // namespace
}  // namespace sgp::sim
