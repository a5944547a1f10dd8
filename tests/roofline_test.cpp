// Tests for the roofline analysis.
#include <gtest/gtest.h>

#include "kernels/register_all.hpp"
#include "sim/roofline.hpp"

namespace sgp::sim {
namespace {

TEST(Roofline, C920Fp64RoofEqualsScalarRoof) {
  const auto r = roofline_for(machine::sg2042());
  EXPECT_DOUBLE_EQ(r.peak_vector_gflops_fp64, r.peak_scalar_gflops);
  EXPECT_GT(r.peak_vector_gflops_fp32, 2.0 * r.peak_scalar_gflops);
}

TEST(Roofline, X86Fp64RoofsExceedScalar) {
  for (const auto& m : machine::x86_machines()) {
    const auto r = roofline_for(m);
    EXPECT_GT(r.peak_vector_gflops_fp64, r.peak_scalar_gflops) << m.name;
  }
}

TEST(Roofline, RidgePointIsConsistent) {
  const auto r = roofline_for(machine::amd_rome());
  EXPECT_NEAR(r.ridge_intensity_fp32 * r.stream_bw_gbs,
              r.peak_vector_gflops_fp32, 1e-9);
}

TEST(Roofline, Sg2042RidgePointsMatchPaperNumbers) {
  // RVV FP32 peak 12.8 GFLOP/s over 6 GB/s of stream bandwidth; FP64
  // falls back to the 4 GFLOP/s scalar peak (no FP64 vector unit).
  const auto r = roofline_for(machine::sg2042());
  EXPECT_NEAR(r.ridge_intensity_fp32, 12.8 / 6.0, 1e-9);
  EXPECT_NEAR(r.ridge_intensity_fp64, 4.0 / 6.0, 1e-9);
  EXPECT_LT(r.ridge_intensity_fp64, r.ridge_intensity_fp32);
}

TEST(Roofline, Fp64RidgeIsConsistentOnEveryMachine) {
  for (const auto& m : machine::all_machines()) {
    const auto r = roofline_for(m);
    EXPECT_NEAR(r.ridge_intensity_fp64 * r.stream_bw_gbs,
                r.peak_vector_gflops_fp64, 1e-9)
        << m.name;
    EXPECT_GT(r.ridge_intensity_fp64, 0.0) << m.name;
  }
}

TEST(Roofline, MachinesWithoutVectorFallBackToScalar) {
  const auto r = roofline_for(machine::visionfive_v2());
  EXPECT_DOUBLE_EQ(r.peak_vector_gflops_fp32, r.peak_scalar_gflops);
  EXPECT_DOUBLE_EQ(r.peak_vector_gflops_fp64, r.peak_scalar_gflops);
}

TEST(RooflinePoints, StreamKernelsAreMemoryBound) {
  SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  const auto pts = roofline_points(machine::sg2042(), cfg,
                                   kernels::all_signatures());
  for (const auto& p : pts) {
    if (p.group == core::Group::Stream) {
      EXPECT_TRUE(p.memory_bound) << p.kernel;
      EXPECT_LT(p.intensity, 1.0) << p.kernel;
    }
  }
}

TEST(RooflinePoints, MatmulIsComputeBound) {
  SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  const auto pts = roofline_points(machine::sg2042(), cfg,
                                   {*kernels::find_signature("GEMM"),
                                    *kernels::find_signature("2MM")});
  for (const auto& p : pts) {
    EXPECT_FALSE(p.memory_bound) << p.kernel;
    EXPECT_GT(p.intensity, 2.0) << p.kernel;
  }
}

TEST(RooflinePoints, AttainableNeverExceedsEitherRoof) {
  SimConfig cfg;
  for (const auto prec : core::all_precisions) {
    cfg.precision = prec;
    for (const auto& m : machine::all_machines()) {
      for (const auto& p :
           roofline_points(m, cfg, kernels::all_signatures())) {
        EXPECT_LE(p.attainable_gflops, p.compute_ceiling_gflops + 1e-9)
            << p.kernel << " on " << m.name;
        // Flop-free kernels (MEMSET, COPY, ...) legitimately attain 0.
        EXPECT_GE(p.attainable_gflops, 0.0) << p.kernel;
      }
    }
  }
}

TEST(RooflinePoints, Fp64LowersTheC920CeilingForVectorKernels) {
  SimConfig c32, c64;
  c32.precision = core::Precision::FP32;
  c64.precision = core::Precision::FP64;
  const auto& sig = *kernels::find_signature("TRIAD");  // GCC-vectorised
  const auto p32 =
      roofline_points(machine::sg2042(), c32, {sig}).front();
  const auto p64 =
      roofline_points(machine::sg2042(), c64, {sig}).front();
  EXPECT_GT(p32.compute_ceiling_gflops, p64.compute_ceiling_gflops);
}

}  // namespace
}  // namespace sgp::sim
