// Integration tests: the experiment pipelines must reproduce the
// paper's qualitative findings (who wins, where the crossovers and
// pathologies fall). These are the "shape" assertions of the
// reproduction; absolute magnitudes are compared in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <string>

#include "experiments/experiments.hpp"
#include "kernels/register_all.hpp"

namespace sgp::experiments {
namespace {

using core::Group;
using core::Precision;
using machine::Placement;

const GroupRatios& group_of(const RatioSeries& s, Group g) {
  for (const auto& gr : s.groups) {
    if (gr.group == g) return gr;
  }
  throw std::logic_error("missing group");
}

// ----------------------------------------------------------- Figure 1 --
class Figure1Test : public ::testing::Test {
 protected:
  static const std::vector<RatioSeries>& series() {
    static const auto s = figure1();
    return s;
  }
};

TEST_F(Figure1Test, SeriesOrderAndShape) {
  ASSERT_EQ(series().size(), 5u);
  EXPECT_NE(series()[0].label.find("V1 FP64"), std::string::npos);
  EXPECT_NE(series()[4].label.find("SG2042 FP32"), std::string::npos);
  for (const auto& s : series()) {
    EXPECT_EQ(s.per_kernel_ratio.size(), 64u);
    EXPECT_EQ(s.groups.size(), 6u);
  }
}

TEST_F(Figure1Test, C920NeverSlowerThanTheU74) {
  // "there were no kernels that ran slower on the C920 core than the U74"
  for (const auto* label : {"SG2042 FP64", "SG2042 FP32"}) {
    for (const auto& s : series()) {
      if (s.label.find(label) == std::string::npos) continue;
      for (std::size_t i = 0; i < s.per_kernel_ratio.size(); ++i) {
        EXPECT_GT(s.per_kernel_ratio[i], 1.0)
            << label << " " << kernels::all_signatures()[i].name;
      }
    }
  }
}

TEST_F(Figure1Test, Sg2042Fp32BeatsFp64) {
  // Vectorisation works at FP32 only, so the FP32 gains are larger.
  const auto& fp64 = series()[3];
  const auto& fp32 = series()[4];
  for (const auto g : core::all_groups) {
    EXPECT_GT(group_of(fp32, g).mean, group_of(fp64, g).mean)
        << core::to_string(g);
  }
}

TEST_F(Figure1Test, V1SlowerThanV2Everywhere) {
  // The unexplained V1 anomaly: 3-6x slower at FP64.
  const auto& v1fp64 = series()[0];
  for (std::size_t i = 0; i < v1fp64.per_kernel_ratio.size(); ++i) {
    EXPECT_LT(v1fp64.per_kernel_ratio[i], 1.0)
        << kernels::all_signatures()[i].name;
  }
  // And V1 FP32 never beats the V2 FP64 baseline on average.
  const auto& v1fp32 = series()[1];
  for (const auto g : core::all_groups) {
    EXPECT_LT(group_of(v1fp32, g).mean, 0.5) << core::to_string(g);
  }
}

TEST_F(Figure1Test, Fp64GainsInThePapersBand) {
  // Paper: "between 4.3 and 6.5 times the performance" at FP64 on
  // average per class; we accept a generous band around it.
  const auto& fp64 = series()[3];
  for (const auto g : core::all_groups) {
    const double mean_ratio = group_of(fp64, g).mean + 1.0;  // decode ~avg
    EXPECT_GT(mean_ratio, 2.5) << core::to_string(g);
    EXPECT_LT(mean_ratio, 9.0) << core::to_string(g);
  }
}

// --------------------------------------------------------- Tables 1-3 --
class ScalingTest : public ::testing::Test {
 protected:
  static const ScalingTable& block() {
    static const auto t = scaling_table(Placement::Block);
    return t;
  }
  static const ScalingTable& cyclic() {
    static const auto t = scaling_table(Placement::CyclicNuma);
    return t;
  }
  static const ScalingTable& cluster() {
    static const auto t = scaling_table(Placement::ClusterCyclic);
    return t;
  }
  // Thread counts are {2,4,8,16,32,64}: index of a count.
  static std::size_t idx(int threads) {
    const auto& tc = block().thread_counts;
    return static_cast<std::size_t>(
        std::find(tc.begin(), tc.end(), threads) - tc.begin());
  }
};

TEST_F(ScalingTest, TablesCoverAllGroupsAndCounts) {
  for (const auto* t : {&block(), &cyclic(), &cluster()}) {
    EXPECT_EQ(t->thread_counts,
              (std::vector<int>{2, 4, 8, 16, 32, 64}));
    for (const auto g : core::all_groups) {
      ASSERT_EQ(t->cells.at(g).size(), 6u);
      for (const auto& c : t->cells.at(g)) {
        EXPECT_GT(c.speedup, 0.0);
        EXPECT_GT(c.parallel_efficiency, 0.0);
      }
    }
  }
}

TEST_F(ScalingTest, ClusterBeatsCyclicBeatsBlockMidCounts) {
  // The paper's Section 3.2 conclusion, for the bandwidth-bound classes
  // at 8..32 threads.
  for (const auto g : {Group::Stream, Group::Algorithm}) {
    for (const int t : {8, 16, 32}) {
      const double b = block().cells.at(g)[idx(t)].speedup;
      const double cy = cyclic().cells.at(g)[idx(t)].speedup;
      const double cl = cluster().cells.at(g)[idx(t)].speedup;
      EXPECT_GE(cl, 0.95 * cy) << core::to_string(g) << " @" << t;
      EXPECT_GE(cy, 0.95 * b) << core::to_string(g) << " @" << t;
      EXPECT_GT(cl, b) << core::to_string(g) << " @" << t;
    }
  }
}

TEST_F(ScalingTest, BlockPlacementDipsAtThirtyTwo) {
  // Table 1's signature pathology: block-32 lands on two NUMA regions
  // (16 threads per controller), so bandwidth-bound classes regress
  // below block-16.
  for (const auto g : {Group::Stream, Group::Algorithm}) {
    const double s16 = block().cells.at(g)[idx(16)].speedup;
    const double s32 = block().cells.at(g)[idx(32)].speedup;
    EXPECT_LT(s32, s16) << core::to_string(g);
    EXPECT_LT(s32, 1.2) << core::to_string(g) << ": near-serial collapse";
  }
}

TEST_F(ScalingTest, StreamCollapsesAtSixtyFour) {
  // All placements: 16 threads per region oversubscribe the
  // controllers, and the paper's stream speedups fall to ~1.5-1.8.
  for (const auto* t : {&block(), &cyclic(), &cluster()}) {
    EXPECT_LT(t->cells.at(Group::Stream)[idx(64)].speedup, 3.0);
  }
}

TEST_F(ScalingTest, PolybenchScalesBest) {
  // The paper's Tables: polybench has the best PE at scale.
  for (const auto* t : {&cyclic(), &cluster()}) {
    const double poly = t->cells.at(Group::Polybench)[idx(64)].speedup;
    for (const auto g :
         {Group::Stream, Group::Algorithm, Group::Lcals, Group::Basic,
          Group::Apps}) {
      EXPECT_GE(poly, t->cells.at(g)[idx(64)].speedup)
          << core::to_string(g);
    }
    EXPECT_GT(poly, 30.0);
  }
}

TEST_F(ScalingTest, ClusterPlacementNearIdealAtLowCounts) {
  // Table 3: speedups ~= thread count up to 4 threads.
  for (const auto g : {Group::Stream, Group::Polybench, Group::Lcals}) {
    EXPECT_GT(cluster().cells.at(g)[idx(2)].parallel_efficiency, 0.85)
        << core::to_string(g);
    EXPECT_GT(cluster().cells.at(g)[idx(4)].parallel_efficiency, 0.85)
        << core::to_string(g);
  }
}

TEST_F(ScalingTest, SixtyFourThreadsIdenticalAcrossPlacements) {
  // All 64 cores active: block and cyclic degenerate to the same set.
  for (const auto g : core::all_groups) {
    EXPECT_NEAR(block().cells.at(g)[idx(64)].speedup,
                cyclic().cells.at(g)[idx(64)].speedup, 1e-9)
        << core::to_string(g);
  }
}

// ----------------------------------------------------------- Figure 2 --
class Figure2Test : public ::testing::Test {
 protected:
  static const std::vector<RatioSeries>& series() {
    static const auto s = figure2();
    return s;
  }
};

TEST_F(Figure2Test, Fp64VectorisationIsMarginal) {
  // "enabling vectorisation for FP64 delivers very marginal benefit"
  const auto& fp64 = series()[1];
  for (const auto g : core::all_groups) {
    if (g == Group::Basic) continue;  // REDUCE3_INT lifts this average
    EXPECT_LT(group_of(fp64, g).mean, 0.15) << core::to_string(g);
    EXPECT_GT(group_of(fp64, g).mean, -0.2) << core::to_string(g);
  }
}

TEST_F(Figure2Test, IntegerKernelLiftsBasicFp64) {
  // "it is just one kernel which operates on integers that is driving
  // this average upwards"
  const auto& fp64 = series()[1];
  EXPECT_GT(group_of(fp64, Group::Basic).max, 0.5);
  const auto* reduce3 = kernels::find_signature("REDUCE3_INT");
  ASSERT_NE(reduce3, nullptr);
  EXPECT_GT(
      fp64.per_kernel_ratio[reduce3 - kernels::all_signatures().data()],
      1.5);
}

TEST_F(Figure2Test, Fp32BenefitExistsAndStreamIsLargest) {
  const auto& fp32 = series()[0];
  const double stream = group_of(fp32, Group::Stream).mean;
  EXPECT_GT(stream, 0.5);
  for (const auto g : core::all_groups) {
    if (g == Group::Stream) continue;
    EXPECT_GE(stream, group_of(fp32, g).mean) << core::to_string(g);
  }
}

TEST_F(Figure2Test, SomeFp64KernelsRunSlightlySlowerVectorised) {
  // Figure 2's small negative whiskers.
  const auto& fp64 = series()[1];
  double worst = 1.0;
  for (const auto g : core::all_groups) {
    worst = std::min(worst, group_of(fp64, g).min);
  }
  EXPECT_LT(worst, 0.0);
  EXPECT_GT(worst, -0.25) << "overhead should be small";
}

// ----------------------------------------------------------- Figure 3 --
class Figure3Test : public ::testing::Test {
 protected:
  static const std::vector<Fig3Row>& rows() {
    static const auto r = figure3();
    return r;
  }
  static const Fig3Row& row(const std::string& k) {
    for (const auto& r : rows()) {
      if (r.kernel == k) return r;
    }
    throw std::logic_error("missing " + k);
  }
};

TEST_F(Figure3Test, CoversAllPolybenchKernels) {
  EXPECT_EQ(rows().size(), 13u);
  int named = 0;
  for (const auto& r : rows()) named += r.paper_named ? 1 : 0;
  EXPECT_EQ(named, 7);
}

TEST_F(Figure3Test, ClangLosesWhereItCannotVectorise) {
  // "the 2MM, 3MM and GEMM kernels execute in scalar mode only and
  // switching to Clang delivers worse performance"
  for (const char* k : {"2MM", "3MM", "GEMM"}) {
    EXPECT_LT(row(k).clang_vla, 0.0) << k;
    EXPECT_LT(row(k).clang_vls, 0.0) << k;
  }
}

TEST_F(Figure3Test, ClangWinsWhereGccFails) {
  // GCC cannot vectorise Warshall/Heat3D; Jacobi1D runs GCC's scalar
  // path. Clang vectorises all three and wins.
  for (const char* k : {"FLOYD_WARSHALL", "HEAT_3D", "JACOBI_1D"}) {
    EXPECT_GT(row(k).clang_vls, 0.0) << k;
  }
}

TEST_F(Figure3Test, Jacobi2dIsTheSurprise) {
  // "a surprise was that the Jacobi2D kernel is slower with Clang"
  EXPECT_LT(row("JACOBI_2D").clang_vla, 0.0);
  EXPECT_LT(row("JACOBI_2D").clang_vls, 0.0);
  EXPECT_TRUE(row("JACOBI_2D").clang_vectorizes);
}

TEST_F(Figure3Test, VlsTendsToOutperformVla) {
  // "VLS tends to outperform VLA on the C920"
  int vls_wins = 0, vla_wins = 0;
  for (const auto& r : rows()) {
    if (r.clang_vls > r.clang_vla + 1e-9) ++vls_wins;
    if (r.clang_vla > r.clang_vls + 1e-9) ++vla_wins;
    EXPECT_GE(r.clang_vls, r.clang_vla - 1e-9) << r.kernel;
  }
  EXPECT_GT(vls_wins, vla_wins);
}

// -------------------------------------------------------- Figures 4-7 --
class X86Test : public ::testing::Test {
 protected:
  static const std::vector<RatioSeries>& fig(Precision p, bool multi) {
    static std::map<std::pair<int, bool>, std::vector<RatioSeries>> cache;
    auto key = std::make_pair(static_cast<int>(p), multi);
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache.emplace(key, x86_comparison(p, multi)).first;
    }
    return it->second;
  }
};

TEST_F(X86Test, SeriesMatchTable4Order) {
  const auto& s = fig(Precision::FP64, false);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_NE(s[0].label.find("Rome"), std::string::npos);
  EXPECT_NE(s[1].label.find("Broadwell"), std::string::npos);
  EXPECT_NE(s[2].label.find("Icelake"), std::string::npos);
  EXPECT_NE(s[3].label.find("Sandybridge"), std::string::npos);
}

TEST_F(X86Test, ModernX86WinsSingleCoreFp64) {
  // Figure 4: Rome/Broadwell/Icelake outperform the C920 in every class.
  const auto& s = fig(Precision::FP64, false);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto g : core::all_groups) {
      EXPECT_GT(group_of(s[i], g).mean, 0.0)
          << s[i].label << " " << core::to_string(g);
    }
  }
}

TEST_F(X86Test, SandybridgeLosesStreamFp64SingleCore) {
  // Figure 4: "the Sandybridge core on average performs slower for
  // stream and algorithm benchmark classes".
  const auto& snb = fig(Precision::FP64, false)[3];
  EXPECT_LT(group_of(snb, Group::Stream).mean, 0.1);
  EXPECT_LT(group_of(snb, Group::Algorithm).mean, 0.3);
}

TEST_F(X86Test, SomeKernelsFavourTheC920) {
  // Figures 4/5 whiskers: at least one kernel runs slower on each x86
  // CPU than on the C920 at FP32.
  const auto& s = fig(Precision::FP32, false);
  for (const auto& series : s) {
    double min_whisker = 1e9;
    for (const auto g : core::all_groups) {
      min_whisker = std::min(min_whisker, group_of(series, g).min);
    }
    EXPECT_LT(min_whisker, 0.1) << series.label;
  }
}

TEST_F(X86Test, RomeFp32IsLacklustreRelativeToFp64) {
  // Figure 5: "the AMD Rome CPU is fairly lacklustre when executing at
  // single precision compared to double".
  const auto& rome64 = fig(Precision::FP64, false)[0];
  const auto& rome32 = fig(Precision::FP32, false)[0];
  int fp64_better = 0;
  for (const auto g : core::all_groups) {
    if (group_of(rome64, g).mean > group_of(rome32, g).mean) ++fp64_better;
  }
  EXPECT_GE(fp64_better, 5);
}

TEST_F(X86Test, Sg2042BeatsSandybridgeMultithreaded) {
  // Figures 6/7 + conclusions: "the 64 cores of the SG2042 outperformed
  // the 4 cores of the Sandybridge on average across all the benchmark
  // classes running at both FP32 and FP64".
  for (const auto prec : {Precision::FP32, Precision::FP64}) {
    const auto& snb = fig(prec, true)[3];
    for (const auto g : core::all_groups) {
      EXPECT_LT(group_of(snb, g).mean, 0.0)
          << core::to_string(prec) << " " << core::to_string(g);
    }
  }
}

TEST_F(X86Test, BigX86StillWinsMultithreaded) {
  // Rome and Icelake outperform the SG2042 on average in (nearly) every
  // class when multithreaded.
  for (const auto prec : {Precision::FP32, Precision::FP64}) {
    for (std::size_t i : {0u, 2u}) {  // Rome, Icelake
      const auto& s = fig(prec, true)[i];
      int wins = 0;
      for (const auto g : core::all_groups) {
        if (group_of(s, g).mean > 0.0) ++wins;
      }
      EXPECT_GE(wins, 5) << s.label << " " << core::to_string(prec);
    }
  }
}

TEST_F(X86Test, BestSg2042ThreadsIsThirtyTwoOrSixtyFour) {
  for (const auto g : core::all_groups) {
    for (const auto p : {Precision::FP32, Precision::FP64}) {
      const int n = best_sg2042_threads(g, p);
      EXPECT_TRUE(n == 32 || n == 64)
          << core::to_string(g) << " " << core::to_string(p) << ": " << n;
    }
  }
  // The paper found 32 more performant than 64 for some classes.
  int any32 = 0;
  for (const auto g : core::all_groups) {
    if (best_sg2042_threads(g, Precision::FP32) == 32) ++any32;
  }
  EXPECT_GT(any32, 0);
}

// ------------------------------------------------------------ helpers --
// The pipelines' per-class sums walk the table in registry order; they
// match the historical name-keyed walk only because, inside every group,
// registry order is ascending std::string order.
TEST(Helpers, KernelTableIsNameSortedInsideEachGroupAndIndexable) {
  const auto& sigs = kernels::all_signatures();
  ASSERT_EQ(sigs.size(), 64u);
  for (const Group g : core::all_groups) {
    const std::string* prev = nullptr;
    std::size_t count = 0;
    for (const auto& sig : sigs) {
      if (sig.group != g) continue;
      ++count;
      if (prev != nullptr) {
        EXPECT_LT(*prev, sig.name) << core::to_string(g);
      }
      prev = &sig.name;
    }
    EXPECT_GT(count, 0u) << core::to_string(g);
  }
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ(kernels::find_signature(sigs[i].name), &sigs[i])
        << sigs[i].name;
  }
  EXPECT_EQ(kernels::find_signature("NOT_A_KERNEL"), nullptr);
  EXPECT_EQ(kernels::find_signature("triad"), nullptr);
  EXPECT_EQ(kernels::find_signature("Triad"), nullptr);
  EXPECT_EQ(kernels::find_signature(""), nullptr);
  // The table is one process-wide object.
  EXPECT_EQ(&kernels::all_signatures(), &sigs);
}

TEST(Helpers, SummarizeByGroupHandlesEncodedNegatives) {
  const std::vector<double> ratios{2.0, 0.5, 3.0};
  std::vector<core::KernelSignature> sigs(3);
  sigs[0].group = Group::Stream;
  sigs[1].group = Group::Stream;
  sigs[2].group = Group::Apps;
  const auto out = summarize_by_group(ratios, sigs);
  ASSERT_EQ(out.size(), core::all_groups.size());
  EXPECT_EQ(out[1].kernels, 1u);  // Apps
  EXPECT_DOUBLE_EQ(out[1].mean, 2.0);
  EXPECT_EQ(out[0].kernels, 0u);  // Algorithm: no kernels, zeros
  const auto& stream = out[5];  // Stream is last in all_groups
  EXPECT_EQ(stream.kernels, 2u);
  EXPECT_DOUBLE_EQ(stream.mean, 0.0);  // +1 and -1 encoded
  EXPECT_DOUBLE_EQ(stream.min, -1.0);
  EXPECT_DOUBLE_EQ(stream.max, 1.0);
}

}  // namespace
}  // namespace sgp::experiments
