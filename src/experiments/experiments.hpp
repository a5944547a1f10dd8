// The paper's experiments as reusable pipelines. Each bench binary is a
// thin printer over these functions, and the integration tests assert
// the paper's qualitative findings on the same structured outputs.
//
// Every pipeline runs on the sweep engine (src/engine), which prices
// every point it is asked for, in batches, and memoizes nothing.
// Callers pass the engine (usually the process-wide
// engine::shared_engine()). Per-kernel values are vectors aligned with
// kernels::all_signatures(); inside a class that is ascending name
// order, so every per-class sum runs in a fixed order.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/signature.hpp"
#include "core/types.hpp"
#include "machine/descriptor.hpp"
#include "machine/placement.hpp"
#include "report/stats.hpp"
#include "sim/config.hpp"

namespace sgp::engine {
class SweepEngine;
}

namespace sgp::experiments {

// --------------------------------------------------- pipeline machine --
/// The machine the SG2042-centric pipelines (figure1's SG series,
/// figure2/3, scaling tables, the x86 comparison baseline and the
/// best-thread search) run on: machine::shared_registry()'s "sg2042".
/// Returns a registry-stable reference.
const machine::MachineDescriptor& pipeline_machine();

/// Per-kernel simulated times (seconds over all reps) for one machine
/// under one configuration, aligned with kernels::all_signatures().
std::vector<double> kernel_times(const machine::MachineDescriptor& m,
                                 const sim::SimConfig& cfg,
                                 engine::SweepEngine& eng);

/// A per-class summary of encoded ratios (the paper's bar + whiskers):
/// mean/min/max are in the paper's "times faster/slower" encoding.
struct GroupRatios {
  core::Group group = core::Group::Basic;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t kernels = 0;
};

/// One figure series (one machine/precision bar set).
struct RatioSeries {
  std::string label;
  std::vector<GroupRatios> groups;  // in all_groups order
  /// Raw per-kernel time ratios baseline/subject (>1 = subject faster),
  /// aligned with kernels::all_signatures().
  std::vector<double> per_kernel_ratio;
};

// ---------------------------------------------------------- Figure 1 --
/// Single-core RISC-V comparison, baseline VisionFive V2 at FP64.
/// Series order: V1 FP64, V1 FP32, V2 FP32, SG2042 FP64, SG2042 FP32.
std::vector<RatioSeries> figure1(engine::SweepEngine& eng);

// -------------------------------------------------------- Tables 1-3 --
struct ScalingCell {
  double speedup = 0.0;
  double parallel_efficiency = 0.0;
};

struct ScalingTable {
  machine::Placement placement = machine::Placement::Block;
  std::vector<int> thread_counts;                    // {2,4,8,16,32,64}
  std::map<core::Group, std::vector<ScalingCell>> cells;  // per group
};

/// SG2042 thread-scaling at FP32 under a placement policy (the paper's
/// Tables 1, 2 and 3 for block/cyclic/cluster respectively).
ScalingTable scaling_table(machine::Placement placement,
                           engine::SweepEngine& eng);

// ---------------------------------------------------------- Figure 2 --
/// Single-core vectorisation on/off on the SG2042, per precision.
/// Series order: FP32, FP64. Ratios are t_scalar / t_vector.
std::vector<RatioSeries> figure2(engine::SweepEngine& eng);

// ---------------------------------------------------------- Figure 3 --
struct Fig3Row {
  std::string kernel;
  double clang_vla = 0.0;  ///< encoded ratio vs GCC baseline
  double clang_vls = 0.0;
  bool gcc_vectorizes = false;
  bool gcc_runtime_scalar = false;  ///< GCC vectorised but scalar path runs
  bool clang_vectorizes = false;
  bool paper_named = false;  ///< kernel appears in the paper's Figure 3
};

/// Clang VLA/VLS vs GCC, Polybench kernels, FP32, single C920 core.
std::vector<Fig3Row> figure3(engine::SweepEngine& eng);

// ------------------------------------------------------- Figures 4-7 --
/// x86 CPUs vs the SG2042 baseline. `multithreaded` = false gives
/// Figures 4 (FP64) and 5 (FP32); true gives Figures 6 and 7. Series
/// order matches Table 4: Rome, Broadwell, Icelake, Sandybridge.
std::vector<RatioSeries> x86_comparison(core::Precision prec,
                                        bool multithreaded,
                                        engine::SweepEngine& eng);

/// The most performant SG2042 thread count for a class (the paper found
/// 32 beats 64 for some classes); candidates {32, 64}, cluster placement.
/// Prices the whole suite's candidate grid on every call.
int best_sg2042_threads(core::Group g, core::Precision prec,
                        engine::SweepEngine& eng);

/// Does nothing: the best-thread search keeps no memo outside the
/// engine. Kept because perfbench's paper_regen workload still calls it.
void reset_best_threads_memo();

// ------------------------------------------------------------ Helpers --
/// Mean/min/max of encoded ratios per group, in all_groups order;
/// ratios[i] belongs to sigs[i]'s group.
std::vector<GroupRatios> summarize_by_group(
    std::span<const double> ratios,
    std::span<const core::KernelSignature> sigs);

}  // namespace sgp::experiments
