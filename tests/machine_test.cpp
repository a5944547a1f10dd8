// Tests for the machine descriptors: validity of the seven published
// machines and of the topology queries, plus validation failure modes.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "machine/descriptor.hpp"

namespace sgp::machine {
namespace {

class AllMachines : public ::testing::TestWithParam<int> {
 protected:
  MachineDescriptor m_ = all_machines()[static_cast<std::size_t>(GetParam())];
};

TEST_P(AllMachines, Validates) { EXPECT_NO_THROW(m_.validate()); }

TEST_P(AllMachines, EveryCoreHasNumaAndCluster) {
  for (int c = 0; c < m_.num_cores; ++c) {
    EXPECT_GE(m_.numa_of_core(c), 0) << m_.name << " core " << c;
    EXPECT_GE(m_.cluster_of_core(c), 0) << m_.name << " core " << c;
  }
  EXPECT_EQ(m_.numa_of_core(m_.num_cores), -1);
  EXPECT_EQ(m_.cluster_of_core(-1), -1);
}

TEST_P(AllMachines, TotalBandwidthIsSumOfRegions) {
  double sum = 0.0;
  for (const auto& r : m_.numa) sum += r.mem_bw_gbs;
  EXPECT_DOUBLE_EQ(m_.total_mem_bw_gbs(), sum);
  EXPECT_GT(sum, 0.0);
}

TEST_P(AllMachines, SaturationThreadsAtLeastOne) {
  for (std::size_t r = 0; r < m_.numa.size(); ++r) {
    EXPECT_GE(m_.region_saturation_threads(r), 1.0);
  }
  EXPECT_THROW((void)m_.region_saturation_threads(m_.numa.size()),
               std::out_of_range);
}

TEST_P(AllMachines, SaneCoreParameters) {
  EXPECT_GT(m_.core.clock_ghz, 0.0);
  EXPECT_GE(m_.core.decode_width, 2);
  EXPECT_GT(m_.core.scalar_eff, 0.0);
  EXPECT_LE(m_.core.scalar_eff, 1.0);
  EXPECT_GT(m_.core.stream_bw_gbs, 0.0);
  EXPECT_GT(m_.core.scalar_stream_derate, 0.0);
  EXPECT_LE(m_.core.scalar_stream_derate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Machines, AllMachines, ::testing::Range(0, 7),
                         [](const auto& info) {
                           auto name =
                               all_machines()[static_cast<std::size_t>(
                                                  info.param)]
                                   .name;
                           for (auto& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

// ------------------------------------------------------------ SG2042 --
TEST(Sg2042, ShapeMatchesThePaper) {
  const auto m = sg2042();
  EXPECT_EQ(m.num_cores, 64);
  EXPECT_DOUBLE_EQ(m.core.clock_ghz, 2.0);
  ASSERT_TRUE(m.core.vector.has_value());
  EXPECT_EQ(m.core.vector->isa, "RVV v0.7.1");
  EXPECT_EQ(m.core.vector->width_bits, 128);
  EXPECT_TRUE(m.core.vector->fp32);
  EXPECT_FALSE(m.core.vector->fp64);  // the paper's key finding
  EXPECT_EQ(m.l1d.size_bytes, 64u * 1024);
  EXPECT_EQ(m.l2.size_bytes, 1024u * 1024);
  EXPECT_EQ(m.l2.shared_by, 4);
  EXPECT_EQ(m.l3.size_bytes, 64u * 1024 * 1024);
  EXPECT_EQ(m.numa.size(), 4u);
  EXPECT_EQ(m.clusters.size(), 16u);
  EXPECT_TRUE(m.l3_memory_side);
}

TEST(Sg2042, NumaRegionsUseThePapersInterleavedIds) {
  const auto m = sg2042();
  // "cores 0-7 and 16-23 are in NUMA region 0, 8-15 and 24-31 in region
  // 1, 32-39 and 48-55 in region 2, and 40-47 and 56-63 in region 3".
  for (int c : {0, 7, 16, 23}) EXPECT_EQ(m.numa_of_core(c), 0) << c;
  for (int c : {8, 15, 24, 31}) EXPECT_EQ(m.numa_of_core(c), 1) << c;
  for (int c : {32, 39, 48, 55}) EXPECT_EQ(m.numa_of_core(c), 2) << c;
  for (int c : {40, 47, 56, 63}) EXPECT_EQ(m.numa_of_core(c), 3) << c;
}

TEST(Sg2042, ClustersAreFourConsecutiveCores) {
  const auto m = sg2042();
  EXPECT_EQ(m.cluster_of_core(0), m.cluster_of_core(3));
  EXPECT_NE(m.cluster_of_core(3), m.cluster_of_core(4));
  EXPECT_EQ(m.cluster_of_core(60), m.cluster_of_core(63));
}

// --------------------------------------------------------------- x86 --
TEST(X86Machines, MatchesTable4) {
  const auto& xs = x86_machines();
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_EQ(xs[0].num_cores, 64);   // Rome
  EXPECT_EQ(xs[1].num_cores, 18);   // Broadwell
  EXPECT_EQ(xs[2].num_cores, 28);   // Icelake
  EXPECT_EQ(xs[3].num_cores, 4);    // Sandybridge
  EXPECT_EQ(xs[0].core.vector->isa, "AVX2");
  EXPECT_EQ(xs[1].core.vector->isa, "AVX2");
  EXPECT_EQ(xs[2].core.vector->isa, "AVX512");
  EXPECT_EQ(xs[3].core.vector->isa, "AVX");
  EXPECT_EQ(xs[2].core.vector->width_bits, 512);
  // We follow the paper's (physically dubious) 128-bit statement.
  EXPECT_EQ(xs[3].core.vector->width_bits, 128);
  // All x86 parts vectorise FP64 -- the contrast with the C920.
  for (const auto& x : xs) EXPECT_TRUE(x.core.vector->fp64);
  // Rome has 4 NUMA regions like the SG2042; the Intels one.
  EXPECT_EQ(xs[0].numa.size(), 4u);
  EXPECT_EQ(xs[1].numa.size(), 1u);
  EXPECT_EQ(xs[2].numa.size(), 1u);
  EXPECT_EQ(xs[3].numa.size(), 1u);
}

TEST(VisionFive, V1IsDeratedV2IsNot) {
  const auto v1 = visionfive_v1();
  const auto v2 = visionfive_v2();
  EXPECT_EQ(v1.num_cores, 2);
  EXPECT_EQ(v2.num_cores, 4);
  EXPECT_LT(v1.memory_derating, 1.0);
  EXPECT_DOUBLE_EQ(v2.memory_derating, 1.0);
  EXPECT_FALSE(v1.core.vector.has_value());  // no RVV on the U74
  EXPECT_FALSE(v2.core.vector.has_value());
  EXPECT_FALSE(v1.l3.present());
}

// ------------------------------------------------- validation errors --
// Each failure pins validate()'s exact message, so a rewrite of the
// checks keeps both which error wins and its wording.
void expect_invalid(const MachineDescriptor& m, const std::string& what) {
  try {
    m.validate();
    ADD_FAILURE() << "validate() accepted " << m.name << "; expected: "
                  << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
}

TEST(Validation, CatchesMissingCores) {
  auto m = sg2042();
  m.numa[0].cores.pop_back();
  expect_invalid(m, "Sophon SG2042: cores missing from NUMA map");
}

TEST(Validation, CatchesDuplicateNumaMembership) {
  auto m = sg2042();
  m.numa[1].cores.push_back(0);  // core 0 already in region 0
  expect_invalid(m, "Sophon SG2042: core in two NUMA regions");
}

TEST(Validation, CatchesDuplicateCoreInsideOneRegion) {
  auto m = visionfive_v2();
  m.numa[0].cores = {0, 1, 1, 2, 3};
  expect_invalid(m, "StarFive VisionFive V2: core in two NUMA regions");
}

TEST(Validation, CatchesClusterStraddlingNuma) {
  auto m = sg2042();
  // Swap a core between clusters so one straddles regions 0 and 1.
  m.clusters[1] = {4, 5, 6, 8};
  m.clusters[2] = {7, 9, 10, 11};
  expect_invalid(m, "Sophon SG2042: cluster straddles NUMA regions");
}

TEST(Validation, CatchesWrongClusterWidth) {
  auto m = sg2042();
  m.clusters[0].pop_back();
  expect_invalid(m, "Sophon SG2042: cores missing from cluster map");
}

TEST(Validation, CatchesDuplicateClusterMembership) {
  auto m = sg2042();
  m.clusters[1].push_back(0);  // core 0 already in cluster 0
  expect_invalid(m, "Sophon SG2042: core in two clusters");
}

TEST(Validation, CatchesOutOfRangeClusterCore) {
  auto m = sg2042();
  m.clusters[3].back() = 64;
  expect_invalid(m, "Sophon SG2042: cluster core id out of range");
  m.clusters[3].back() = -1;
  expect_invalid(m, "Sophon SG2042: cluster core id out of range");
}

TEST(Validation, CatchesEmptyRegionAndEmptyCluster) {
  auto m = sg2042();
  m.numa.push_back(NumaRegion{});
  expect_invalid(m, "Sophon SG2042: empty NUMA region");
  m = sg2042();
  m.clusters.insert(m.clusters.begin() + 2, std::vector<int>{});
  expect_invalid(m, "Sophon SG2042: empty cluster");
}

TEST(Validation, FirstFailureWins) {
  // A region error is reported before any cluster error, and inside the
  // NUMA map the first offending core in list order wins.
  auto m = sg2042();
  m.clusters[0].clear();
  m.numa[2].cores.push_back(70);
  m.numa[3].cores.push_back(0);
  expect_invalid(m, "Sophon SG2042: NUMA core id out of range");
  m = sg2042();
  m.clusters[5].push_back(99);  // out of range, in a later cluster
  m.clusters[1] = {4, 5, 6, 8};  // straddles, in an earlier cluster
  expect_invalid(m, "Sophon SG2042: cluster straddles NUMA regions");
}

TEST(Validation, CatchesBadDerating) {
  auto m = visionfive_v1();
  m.memory_derating = 0.0;
  expect_invalid(m, "StarFive VisionFive V1: memory_derating must be in (0,1]");
  m.memory_derating = 1.5;
  expect_invalid(m, "StarFive VisionFive V1: memory_derating must be in (0,1]");
}

TEST(Validation, CatchesOutOfRangeCoreIds) {
  auto m = visionfive_v2();
  m.numa[0].cores.back() = 99;
  expect_invalid(m, "StarFive VisionFive V2: NUMA core id out of range");
  m.numa[0].cores.back() = -3;
  expect_invalid(m, "StarFive VisionFive V2: NUMA core id out of range");
}

}  // namespace
}  // namespace sgp::machine
