// Tests for the RVV v1.0 -> v0.7.1 rollback pass and for the loop
// code generator that feeds it.
#include <gtest/gtest.h>

#include "rvv/codegen.hpp"
#include "rvv/rollback.hpp"

namespace sgp::rvv {
namespace {

Program roll(const std::string& src) {
  return rollback(parse(src)).program;
}

// --------------------------------------------------- vsetvli handling --
TEST(Rollback, DropsPolicyFlags) {
  const auto p = roll("vsetvli t0, a0, e32, m1, ta, ma\n");
  ASSERT_EQ(p.instruction_count(), 1u);
  const auto& l = p.lines[0];
  EXPECT_EQ(l.mnemonic, "vsetvli");
  EXPECT_EQ(l.operands,
            (std::vector<std::string>{"t0", "a0", "e32", "m1"}));
  EXPECT_TRUE(verify(p, Dialect::V0_7_1).empty());
}

TEST(Rollback, ExpandsVsetivli) {
  const auto p = roll("vsetivli t0, 8, e32, m1, ta, ma\n");
  ASSERT_EQ(p.instruction_count(), 2u);
  EXPECT_EQ(p.lines[0].mnemonic, "li");
  EXPECT_EQ(p.lines[0].operands, (std::vector<std::string>{"t6", "8"}));
  EXPECT_EQ(p.lines[1].mnemonic, "vsetvli");
  EXPECT_EQ(p.lines[1].operands,
            (std::vector<std::string>{"t0", "t6", "e32", "m1"}));
}

TEST(Rollback, VsetivliRespectsScratchRegisterOption) {
  RollbackOptions opts;
  opts.scratch_reg = "t5";
  const auto r = rollback(parse("vsetivli t0, 4, e64, m1\n"), opts);
  EXPECT_EQ(r.program.lines[0].operands[0], "t5");
}

TEST(Rollback, VsetivliWithoutExpansionThrows) {
  RollbackOptions opts;
  opts.allow_expansion = false;
  EXPECT_THROW((void)rollback(parse("vsetivli t0, 8, e32, m1\n"), opts),
               RollbackError);
}

TEST(Rollback, FractionalLmulIsFatal) {
  EXPECT_THROW((void)roll("vsetvli t0, a0, e32, mf2, ta, ma\n"),
               RollbackError);
}

// ------------------------------------------------- memory operations --
TEST(Rollback, SewWidthLoadBecomesVle) {
  // SEW = 32, 32-bit load -> SEW-relative form.
  const auto p = roll(
      "vsetvli t0, a0, e32, m1, ta, ma\n"
      "vle32.v v0, (a1)\n"
      "vse32.v v0, (a2)\n");
  EXPECT_EQ(p.lines[1].mnemonic, "vle.v");
  EXPECT_EQ(p.lines[2].mnemonic, "vse.v");
  EXPECT_TRUE(verify(p, Dialect::V0_7_1).empty());
}

TEST(Rollback, SixtyFourBitUnderE64) {
  const auto p = roll(
      "vsetvli t0, a0, e64, m1\n"
      "vle64.v v0, (a1)\n");
  EXPECT_EQ(p.lines[1].mnemonic, "vle.v");
}

TEST(Rollback, NarrowerThanSewUsesWidthTypedForm) {
  // SEW = 64, 32-bit load -> sign-extending vlw.v.
  const auto p = roll(
      "vsetvli t0, a0, e64, m1\n"
      "vle32.v v0, (a1)\n"
      "vse32.v v0, (a2)\n");
  EXPECT_EQ(p.lines[1].mnemonic, "vlw.v");
  EXPECT_EQ(p.lines[2].mnemonic, "vsw.v");
}

TEST(Rollback, WiderThanSewIsFatal) {
  EXPECT_THROW((void)roll("vsetvli t0, a0, e32, m1\n"
                          "vle64.v v0, (a1)\n"),
               RollbackError);
}

TEST(Rollback, StridedAndIndexedForms) {
  const auto p = roll(
      "vsetvli t0, a0, e32, m1\n"
      "vlse32.v v0, (a1), a3\n"
      "vsse32.v v0, (a2), a3\n"
      "vluxei32.v v1, (a1), v2\n"
      "vsuxei32.v v1, (a2), v2\n");
  EXPECT_EQ(p.lines[1].mnemonic, "vlse.v");
  EXPECT_EQ(p.lines[2].mnemonic, "vsse.v");
  EXPECT_EQ(p.lines[3].mnemonic, "vlxe.v");
  EXPECT_EQ(p.lines[4].mnemonic, "vsxe.v");
  EXPECT_TRUE(verify(p, Dialect::V0_7_1).empty());
}

TEST(Rollback, FaultOnlyFirstLoads) {
  const auto p = roll(
      "vsetvli t0, a0, e32, m1\n"
      "vle32ff.v v0, (a1)\n");
  EXPECT_EQ(p.lines[1].mnemonic, "vleff.v");
}

// ------------------------------------------------------ renames etc. --
TEST(Rollback, SimpleRenames) {
  const auto p = roll(
      "vcpop.m t0, v0\n"
      "vmandn.mm v0, v1, v2\n"
      "vmorn.mm v0, v1, v2\n"
      "vfredusum.vs v0, v1, v2\n");
  EXPECT_EQ(p.lines[0].mnemonic, "vpopc.m");
  EXPECT_EQ(p.lines[1].mnemonic, "vmandnot.mm");
  EXPECT_EQ(p.lines[2].mnemonic, "vmornot.mm");
  EXPECT_EQ(p.lines[3].mnemonic, "vfredsum.vs");
  EXPECT_TRUE(verify(p, Dialect::V0_7_1).empty());
}

TEST(Rollback, VmvXsBecomesElementExtract) {
  const auto p = roll("vmv.x.s a0, v4\n");
  EXPECT_EQ(p.lines[0].mnemonic, "vext.x.v");
  EXPECT_EQ(p.lines[0].operands,
            (std::vector<std::string>{"a0", "v4", "x0"}));
}

TEST(Rollback, VmnotExpandsToVmnand) {
  const auto p = roll("vmnot.m v0, v1\n");
  EXPECT_EQ(p.lines[0].mnemonic, "vmnand.mm");
  EXPECT_EQ(p.lines[0].operands,
            (std::vector<std::string>{"v0", "v1", "v1"}));
}

TEST(Rollback, WholeRegisterMoveBecomesVmv) {
  const auto p = roll("vmv1r.v v8, v0\n");
  EXPECT_EQ(p.lines[0].mnemonic, "vmv.v.v");
}

TEST(Rollback, UntranslatableInstructionsThrow) {
  for (const char* bad :
       {"vzext.vf2 v0, v1\n", "vsext.vf4 v0, v1\n", "vl1r.v v0, (a1)\n",
        "vmv2r.v v8, v0\n", "vfslide1up.vf v0, v1, fa0\n"}) {
    EXPECT_THROW((void)roll(bad), RollbackError) << bad;
  }
}

TEST(Rollback, PassesThroughScalarAndCommonOps) {
  const std::string src =
      "loop:\n"
      "    vfmacc.vv v4, v0, v1\n"
      "    add a1, a1, t1\n"
      "    bnez a0, loop\n";
  const auto r = rollback(parse(src));
  EXPECT_EQ(r.rewritten, 0u);
  EXPECT_EQ(print(r.program), print(parse(src)));
}

TEST(Rollback, ReportsNotesAndCounts) {
  const auto r = rollback(parse(
      "vsetvli t0, a0, e32, m1, ta, ma\n"
      "vle32.v v0, (a1)\n"));
  EXPECT_EQ(r.rewritten, 2u);
  EXPECT_EQ(r.notes.size(), 2u);
}

TEST(Rollback, TextHelperProducesValidAsm) {
  const auto text = rollback_text(
      "vsetvli t0, a0, e32, m1, ta, ma\nvle32.v v0, (a1)\n");
  EXPECT_TRUE(verify(parse(text), Dialect::V0_7_1).empty());
}

// ----------------------------------------------- codegen + rollback --
class EmitAndRoll
    : public ::testing::TestWithParam<std::tuple<int /*sew*/, CodegenMode>> {
};

TEST_P(EmitAndRoll, V1LoopRollsBackToClean071) {
  const auto [sew, mode] = GetParam();
  LoopSpec spec;
  spec.sew = sew;
  spec.loads = 2;
  spec.stores = 1;
  spec.fmacc = 1;
  const auto v1 = emit_loop(spec, mode, Dialect::V1_0);
  EXPECT_TRUE(verify(v1, Dialect::V1_0).empty());
  // v1.0 output is NOT valid v0.7.1 before rollback...
  EXPECT_FALSE(verify(v1, Dialect::V0_7_1).empty());
  // ...and is valid after.
  const auto r = rollback(v1);
  EXPECT_TRUE(verify(r.program, Dialect::V0_7_1).empty());
  EXPECT_GT(r.rewritten, 0u);
}

TEST_P(EmitAndRoll, DirectV071EmissionIsClean) {
  const auto [sew, mode] = GetParam();
  LoopSpec spec;
  spec.sew = sew;
  const auto p = emit_loop(spec, mode, Dialect::V0_7_1);
  EXPECT_TRUE(verify(p, Dialect::V0_7_1).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EmitAndRoll,
    ::testing::Combine(::testing::Values(32, 64),
                       ::testing::Values(CodegenMode::VLA,
                                         CodegenMode::VLS)));

// ------------------------------------------------------- loop_cost --
TEST(LoopCost, VlaHasMoreScalarOverheadThanVls) {
  LoopSpec spec;
  spec.loads = 2;
  spec.stores = 1;
  const auto vla = loop_cost(spec, CodegenMode::VLA, Dialect::V1_0);
  const auto vls = loop_cost(spec, CodegenMode::VLS, Dialect::V1_0);
  EXPECT_GT(vla.scalar_instrs_per_strip, vls.scalar_instrs_per_strip);
  EXPECT_EQ(vla.vector_instrs_per_strip, vls.vector_instrs_per_strip + 1)
      << "VLA carries the in-loop vsetvli";
  const auto instrs_per_elem = [](const LoopCost& c) {
    return (c.vector_instrs_per_strip + c.scalar_instrs_per_strip) /
           c.elems_per_strip;
  };
  EXPECT_GT(instrs_per_elem(vla), instrs_per_elem(vls));
}

// Reference for loop_cost: emit the loop and count the strip body, from
// the _loop label up to its backward branch.
LoopCost emit_and_count(const LoopSpec& spec, CodegenMode mode, Dialect d) {
  const Program p = emit_loop(spec, mode, d);
  LoopCost cost;
  cost.elems_per_strip = spec.vector_bits / spec.sew;
  bool in_loop = false;
  const std::string loop_label = spec.name + "_loop:";
  for (const auto& l : p.lines) {
    if (l.kind == LineKind::Label) {
      if (l.text == loop_label) in_loop = true;
      else if (in_loop) break;
      continue;
    }
    if (!in_loop || l.kind != LineKind::Instruction) continue;
    if (l.is_vector()) {
      cost.vector_instrs_per_strip += 1;
    } else {
      cost.scalar_instrs_per_strip += 1;
    }
    if (l.mnemonic == "bnez" || l.mnemonic == "bge") break;
  }
  return cost;
}

TEST(LoopCost, MatchesEmitAndCountOverTheModelDomain) {
  // Every shape compiler::plan's loop_spec_for can produce (and the
  // all-zero arithmetic corner it rewrites to one fadd), in both modes
  // and both dialects.
  int checked = 0;
  int mismatches = 0;
  const auto check = [&](const LoopSpec& spec) {
    for (const auto mode : {CodegenMode::VLA, CodegenMode::VLS}) {
      for (const auto d : {Dialect::V0_7_1, Dialect::V1_0}) {
        const LoopCost got = loop_cost(spec, mode, d);
        const LoopCost want = emit_and_count(spec, mode, d);
        ++checked;
        if (got.vector_instrs_per_strip == want.vector_instrs_per_strip &&
            got.scalar_instrs_per_strip == want.scalar_instrs_per_strip &&
            got.elems_per_strip == want.elems_per_strip) {
          continue;
        }
        if (++mismatches > 5) continue;
        ADD_FAILURE() << "sew=" << spec.sew << " bits=" << spec.vector_bits
                      << " loads=" << spec.loads << " stores=" << spec.stores
                      << " fmacc=" << spec.fmacc << " fadd=" << spec.fadd
                      << " fmul=" << spec.fmul << " red=" << spec.reduction
                      << " " << to_string(mode)
                      << " dialect=" << static_cast<int>(d) << ": vector "
                      << got.vector_instrs_per_strip << " vs "
                      << want.vector_instrs_per_strip << ", scalar "
                      << got.scalar_instrs_per_strip << " vs "
                      << want.scalar_instrs_per_strip << ", elems "
                      << got.elems_per_strip << " vs "
                      << want.elems_per_strip;
      }
    }
  };
  LoopSpec spec;
  spec.name = "k";
  for (const int sew : {32, 64}) {
    spec.sew = sew;
    for (const int bits : {128, 256, 512}) {
      spec.vector_bits = bits;
      for (spec.loads = 1; spec.loads <= 4; ++spec.loads) {
        for (spec.stores = 0; spec.stores <= 2; ++spec.stores) {
          for (spec.fmacc = 0; spec.fmacc <= 4; ++spec.fmacc) {
            for (spec.fadd = 0; spec.fadd <= 4; ++spec.fadd) {
              for (spec.fmul = 0; spec.fmul <= 4; ++spec.fmul) {
                for (const bool reduction : {false, true}) {
                  spec.reduction = reduction;
                  check(spec);
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(checked, 2 * 3 * 4 * 3 * 5 * 5 * 5 * 2 * 2 * 2);
}

TEST(LoopCost, RejectsWhatEmitLoopRejects) {
  LoopSpec spec;
  spec.sew = 16;
  EXPECT_THROW((void)loop_cost(spec, CodegenMode::VLA, Dialect::V1_0),
               std::invalid_argument);
  spec.sew = 32;
  spec.stores = 3;
  EXPECT_THROW((void)loop_cost(spec, CodegenMode::VLS, Dialect::V1_0),
               std::invalid_argument);
}

TEST(LoopCost, ElementsPerStripFollowSew) {
  LoopSpec spec;
  spec.vector_bits = 128;
  spec.sew = 32;
  EXPECT_DOUBLE_EQ(
      loop_cost(spec, CodegenMode::VLS, Dialect::V1_0).elems_per_strip, 4.0);
  spec.sew = 64;
  EXPECT_DOUBLE_EQ(
      loop_cost(spec, CodegenMode::VLS, Dialect::V1_0).elems_per_strip, 2.0);
}

TEST(EmitLoop, RejectsBadSpecs) {
  LoopSpec spec;
  spec.sew = 16;
  EXPECT_THROW((void)emit_loop(spec, CodegenMode::VLS, Dialect::V1_0),
               std::invalid_argument);
  spec.sew = 32;
  spec.loads = 9;
  EXPECT_THROW((void)emit_loop(spec, CodegenMode::VLS, Dialect::V1_0),
               std::invalid_argument);
}

TEST(EmitLoop, VlsHasScalarTailLoop) {
  LoopSpec spec;
  const auto p = emit_loop(spec, CodegenMode::VLS, Dialect::V1_0);
  bool has_tail_label = false;
  for (const auto& l : p.lines) {
    if (l.kind == LineKind::Label &&
        l.text.find("_tail") != std::string::npos) {
      has_tail_label = true;
    }
  }
  EXPECT_TRUE(has_tail_label);
}

TEST(EmitLoop, ReductionEmitsReductionInstruction) {
  LoopSpec spec;
  spec.reduction = true;
  spec.stores = 0;
  const auto v1 = emit_loop(spec, CodegenMode::VLA, Dialect::V1_0);
  const auto v071 = emit_loop(spec, CodegenMode::VLA, Dialect::V0_7_1);
  auto has = [](const Program& p, std::string_view m) {
    for (const auto& l : p.lines) {
      if (l.kind == LineKind::Instruction && l.mnemonic == m) return true;
    }
    return false;
  };
  EXPECT_TRUE(has(v1, "vfredusum.vs"));
  EXPECT_TRUE(has(v071, "vfredsum.vs"));
}

}  // namespace
}  // namespace sgp::rvv
