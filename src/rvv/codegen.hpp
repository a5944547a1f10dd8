// Emits representative RVV assembly for an elementwise loop nest, in
// either codegen mode (VLA as Clang emits it, VLS as XuanTie GCC emits
// it) and either dialect. Used as the input generator for rollback
// tests/tools and by the rollback_tool example. The performance model
// takes its per-strip instruction counts from loop_cost, which counts
// the same loop body without emitting any text.
#pragma once

#include "rvv/ir.hpp"

namespace sgp::rvv {

/// Shape of one vectorisable inner loop.
struct LoopSpec {
  std::string name = "kernel";
  int sew = 32;           ///< element width in bits (32 or 64)
  int vector_bits = 128;  ///< target vector register width (VLS)
  int loads = 2;          ///< distinct input streams
  int stores = 1;         ///< distinct output streams
  int fmacc = 1;          ///< fused multiply-accumulate ops per element
  int fadd = 0;
  int fmul = 0;
  bool reduction = false; ///< loop reduces into a scalar
};

/// Vector-length-agnostic vs vector-length-specific code generation.
enum class CodegenMode { VLA, VLS };

constexpr std::string_view to_string(CodegenMode m) noexcept {
  return m == CodegenMode::VLA ? "VLA" : "VLS";
}

/// Emits the loop as assembly in the given dialect.
/// VLA: strip-mined with vsetvli inside the loop (Clang style).
/// VLS: vl fixed to the register width, vsetvli hoisted, plus a scalar
/// tail loop (XuanTie GCC style).
Program emit_loop(const LoopSpec& spec, CodegenMode mode, Dialect d);

/// Static cost of the strip loop emit_loop writes.
struct LoopCost {
  double vector_instrs_per_strip = 0;  ///< vector instructions per strip
  double scalar_instrs_per_strip = 0;  ///< bookkeeping per strip
  double elems_per_strip = 1;          ///< elements retired per strip
};

/// Counts that loop from the spec alone (no Program is built); throws
/// on the specs emit_loop rejects.
LoopCost loop_cost(const LoopSpec& spec, CodegenMode mode, Dialect d);

}  // namespace sgp::rvv
