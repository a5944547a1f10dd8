// Tests for the compiler model: code path decisions, the paper's
// capability counts, and the strip/memory overheads.
#include <gtest/gtest.h>

#include "compiler/model.hpp"
#include "kernels/register_all.hpp"
#include "kernels/vector_facts.hpp"

namespace sgp::compiler {
namespace {

using core::CompilerId;
using core::Precision;
using core::VectorMode;

TEST(Plan, ScalarModeIsScalar) {
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Gcc,
                      VectorMode::Scalar, machine::sg2042());
  EXPECT_FALSE(p.vector_path);
  EXPECT_DOUBLE_EQ(p.scalar_penalty, 1.0);
}

TEST(Plan, NoVectorUnitMeansScalar) {
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Gcc,
                      VectorMode::VLS, machine::visionfive_v2());
  EXPECT_FALSE(p.vector_path);
  EXPECT_EQ(p.note, NoteKind::NoVectorUnit);
  EXPECT_NE(note_text(p.note, CompilerId::Gcc, VectorMode::VLS, false,
                      "VisionFive V2")
                .find("no vector unit"),
            std::string::npos);
}

TEST(Plan, GccCannotEmitVla) {
  const auto& sig = *kernels::find_signature("TRIAD");
  EXPECT_THROW((void)plan(sig, Precision::FP32, CompilerId::Gcc,
                          VectorMode::VLA, machine::sg2042()),
               std::invalid_argument);
}

TEST(Plan, ClangCanEmitVla) {
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Clang,
                      VectorMode::VLA, machine::sg2042());
  EXPECT_TRUE(p.vector_path);
}

TEST(Plan, UnvectorizableKernelStaysScalar) {
  // Neither compiler vectorises sorts.
  const auto& sig = *kernels::find_signature("SORT");
  for (const auto comp : {CompilerId::Gcc, CompilerId::Clang}) {
    const auto p =
        plan(sig, Precision::FP32, comp, VectorMode::VLS, machine::sg2042());
    EXPECT_FALSE(p.vector_path) << core::to_string(comp);
  }
}

TEST(Plan, RuntimeScalarPathCarriesSmallPenalty) {
  // GCC vectorises, the scalar path runs.
  const auto& sig = *kernels::find_signature("JACOBI_1D");
  const auto p = plan(sig, Precision::FP32, CompilerId::Gcc,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_FALSE(p.vector_path);
  EXPECT_GT(p.scalar_penalty, 1.0);
  EXPECT_LT(p.scalar_penalty, 1.1);
}

TEST(Plan, C920Fp64FallsBackToScalarWithOverhead) {
  const auto& sig = *kernels::find_signature("TRIAD");  // vectorised by GCC
  const auto p = plan(sig, Precision::FP64, CompilerId::Gcc,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_FALSE(p.vector_path);
  EXPECT_GT(p.scalar_penalty, 1.0);
  EXPECT_EQ(p.note, NoteKind::NoFp64Vector);
  EXPECT_NE(note_text(p.note, CompilerId::Gcc, VectorMode::VLS, false,
                      "SG2042")
                .find("FP64"),
            std::string::npos);
}

TEST(Plan, X86Fp64Vectorizes) {
  const auto& sig = *kernels::find_signature("TRIAD");
  for (const auto& m : machine::x86_machines()) {
    const auto p =
        plan(sig, Precision::FP64, CompilerId::Gcc, VectorMode::VLS, m);
    EXPECT_TRUE(p.vector_path) << m.name;
    EXPECT_FALSE(p.needs_rollback) << m.name;
  }
}

TEST(Plan, IntegerKernelVectorizesAtBothPrecisions) {
  const auto& sig = *kernels::find_signature("REDUCE3_INT");
  for (const auto prec : {Precision::FP32, Precision::FP64}) {
    const auto p = plan(sig, prec, CompilerId::Gcc, VectorMode::VLS,
                        machine::sg2042());
    EXPECT_TRUE(p.vector_path) << core::to_string(prec);
    EXPECT_DOUBLE_EQ(p.lanes, 2.0);  // 128-bit / INT64
  }
}

TEST(Plan, LanesFollowWidthAndPrecision) {
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto sg = plan(sig, Precision::FP32, CompilerId::Gcc,
                       VectorMode::VLS, machine::sg2042());
  EXPECT_DOUBLE_EQ(sg.lanes, 4.0);  // 128 / 32
  const auto ice = plan(sig, Precision::FP64, CompilerId::Gcc,
                        VectorMode::VLS, machine::intel_icelake());
  EXPECT_DOUBLE_EQ(ice.lanes, 8.0);  // 512 / 64
}

TEST(Plan, ClangOnC920NeedsRollback) {
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto p = plan(sig, Precision::FP32, CompilerId::Clang,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_TRUE(p.needs_rollback);
  EXPECT_EQ(p.note, NoteKind::VectorPath);
  EXPECT_NE(note_text(p.note, CompilerId::Clang, VectorMode::VLS,
                      p.needs_rollback, "SG2042")
                .find("rolled back"),
            std::string::npos);
}

TEST(Plan, VlaCostsStreamEfficiency) {
  const auto& sig = *kernels::find_signature("TRIAD");
  const auto vla = plan(sig, Precision::FP32, CompilerId::Clang,
                        VectorMode::VLA, machine::sg2042());
  const auto vls = plan(sig, Precision::FP32, CompilerId::Clang,
                        VectorMode::VLS, machine::sg2042());
  EXPECT_LT(vla.memory_efficiency, vls.memory_efficiency);
  EXPECT_GT(vla.overhead_instrs_per_strip, vls.overhead_instrs_per_strip);
}

TEST(Plan, Jacobi2dClangPathologyIsEncoded) {
  const auto& sig = *kernels::find_signature("JACOBI_2D");
  const auto p = plan(sig, Precision::FP32, CompilerId::Clang,
                      VectorMode::VLS, machine::sg2042());
  EXPECT_TRUE(p.vector_path);
  EXPECT_LT(p.memory_efficiency, 0.5);
}

// ------------------------------------------------- aggregate counts --
TEST(Capabilities, MatchThePapersCounts) {
  const auto sigs = kernels::all_signatures();
  ASSERT_EQ(sigs.size(), 64u);
  const auto gcc = count_capabilities(sigs, CompilerId::Gcc);
  EXPECT_EQ(gcc.vectorized, 30);
  EXPECT_EQ(gcc.scalar_at_runtime, 7);
  const auto clang = count_capabilities(sigs, CompilerId::Clang);
  EXPECT_EQ(clang.vectorized, 59);
  EXPECT_EQ(clang.scalar_at_runtime, 3);
}

TEST(Capabilities, StreamClassFullyVectorisedByGcc) {
  // The paper: "the stream class is unique as GCC is able to vectorise
  // all of its constituent kernels".
  for (const auto& s : kernels::all_signatures()) {
    if (s.group != core::Group::Stream) continue;
    EXPECT_TRUE(s.gcc.effective()) << s.name;
  }
}

TEST(Capabilities, PaperNamedAnchors) {
  EXPECT_FALSE(kernels::find_signature("FLOYD_WARSHALL")->gcc.vectorizes);
  EXPECT_FALSE(kernels::find_signature("HEAT_3D")->gcc.vectorizes);
  EXPECT_TRUE(kernels::find_signature("JACOBI_1D")->gcc.vectorizes);
  EXPECT_FALSE(kernels::find_signature("JACOBI_1D")->gcc.runtime_vector_path);
  EXPECT_TRUE(kernels::find_signature("JACOBI_2D")->gcc.vectorizes);
  EXPECT_FALSE(kernels::find_signature("JACOBI_2D")->gcc.runtime_vector_path);
  for (const char* k : {"2MM", "3MM", "GEMM"}) {
    EXPECT_FALSE(kernels::find_signature(k)->clang.vectorizes) << k;
    EXPECT_TRUE(kernels::find_signature(k)->gcc.effective()) << k;
  }
}

TEST(Capabilities, EveryKernelHasAFactsEntry) {
  for (const auto& s : kernels::all_signatures()) {
    EXPECT_TRUE(kernels::has_vectorization_facts(s.name)) << s.name;
  }
  EXPECT_FALSE(kernels::has_vectorization_facts("NOT_A_KERNEL"));
}

// --------------------------------------------- pattern efficiencies --
TEST(PatternEfficiency, OrderingIsSane) {
  using core::AccessPattern;
  EXPECT_GT(pattern_vector_efficiency(AccessPattern::Streaming),
            pattern_vector_efficiency(AccessPattern::Strided));
  EXPECT_GT(pattern_vector_efficiency(AccessPattern::Strided),
            pattern_vector_efficiency(AccessPattern::Gather));
  EXPECT_GT(pattern_vector_efficiency(AccessPattern::Stencil1D),
            pattern_vector_efficiency(AccessPattern::Stencil3D));
  EXPECT_LT(pattern_vector_efficiency(AccessPattern::Sequential), 0.3);
  for (const auto p :
       {AccessPattern::Streaming, AccessPattern::Strided,
        AccessPattern::Stencil1D, AccessPattern::Stencil2D,
        AccessPattern::Stencil3D, AccessPattern::Gather,
        AccessPattern::Reduction, AccessPattern::Sequential,
        AccessPattern::BlockedMatrix, AccessPattern::Sort}) {
    EXPECT_GT(pattern_vector_efficiency(p), 0.0);
    EXPECT_LE(pattern_vector_efficiency(p), 1.0);
  }
}

}  // namespace
}  // namespace sgp::compiler
