#include "experiments/experiments.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "engine/engine.hpp"
#include "kernels/register_all.hpp"
#include "machine/registry.hpp"
#include "obs/trace.hpp"
#include "report/ratio.hpp"
#include "sim/simulator.hpp"

namespace sgp::experiments {

using core::CompilerId;
using core::Group;
using core::Precision;
using core::VectorMode;
using engine::SweepEngine;
using machine::Placement;
using sim::SimConfig;

namespace {

RatioSeries make_series(std::string label, const std::vector<double>& baseline,
                        const std::vector<double>& subject) {
  RatioSeries s;
  s.label = std::move(label);
  s.per_kernel_ratio.reserve(baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    s.per_kernel_ratio.push_back(baseline[i] / subject[i]);
  }
  s.groups = summarize_by_group(s.per_kernel_ratio, kernels::all_signatures());
  return s;
}

/// SimConfig of the SG2042 x86 baseline and its thread candidates
/// (cluster placement).
SimConfig best_threads_cfg(Precision prec, int n) {
  SimConfig c;
  c.precision = prec;
  c.compiler = CompilerId::Gcc;
  c.vector_mode = VectorMode::VLS;
  c.nthreads = n;
  c.placement = Placement::ClusterCyclic;
  return c;
}

/// The best-thread search's {32, 64} grid over the suite and, per
/// class, the candidate it picked.
struct BestThreads {
  static constexpr int kCandidates[] = {32, 64};
  /// Row-major by candidate: times[c * sigs.size() + s].
  std::vector<sim::TimeBreakdown> times;
  /// Index into kCandidates, by group.
  std::array<std::size_t, core::all_groups.size()> pick{};
};

/// best_sg2042_threads for every class at once: each class's times are
/// summed in suite order and the first strictly smaller total wins.
BestThreads best_threads_by_group(Precision prec, SweepEngine& eng) {
  const auto& sigs = kernels::all_signatures();
  const SimConfig cfgs[] = {
      best_threads_cfg(prec, BestThreads::kCandidates[0]),
      best_threads_cfg(prec, BestThreads::kCandidates[1])};
  BestThreads best;
  best.times = eng.run_grid(pipeline_machine(), sigs, cfgs);
  for (const Group g : core::all_groups) {
    double best_time = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      double total = 0.0;
      for (std::size_t s = 0; s < sigs.size(); ++s) {
        if (sigs[s].group == g) {
          total += best.times[c * sigs.size() + s].total_s;
        }
      }
      if (best_time == 0.0 || total < best_time) {
        best_time = total;
        best.pick[static_cast<std::size_t>(g)] = c;
      }
    }
  }
  return best;
}

}  // namespace

const machine::MachineDescriptor& pipeline_machine() {
  return machine::shared_registry().descriptor("sg2042");
}

std::vector<double> kernel_times(const machine::MachineDescriptor& m,
                                 const SimConfig& cfg, SweepEngine& eng) {
  const SimConfig cfgs[] = {cfg};
  const auto times = eng.run_grid(m, kernels::all_signatures(), cfgs);
  std::vector<double> out;
  out.reserve(times.size());
  for (const auto& t : times) out.push_back(t.total_s);
  return out;
}

std::vector<GroupRatios> summarize_by_group(
    std::span<const double> ratios,
    std::span<const core::KernelSignature> sigs) {
  std::vector<GroupRatios> out;
  for (const Group g : core::all_groups) {
    std::vector<double> encoded;
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      if (sigs[i].group == g) {
        encoded.push_back(report::encode_ratio(ratios[i]));
      }
    }
    GroupRatios gr;
    gr.group = g;
    if (!encoded.empty()) {
      // Encoded ratios can legitimately be negative ("times slower"),
      // so only mean/min/max apply here — no geometric mean.
      gr.mean = report::arithmetic_mean(
          std::span<const double>(encoded.data(), encoded.size()));
      gr.min = *std::min_element(encoded.begin(), encoded.end());
      gr.max = *std::max_element(encoded.begin(), encoded.end());
      gr.kernels = encoded.size();
    }
    out.push_back(gr);
  }
  return out;
}

std::vector<RatioSeries> figure1(SweepEngine& eng) {
  const obs::Span span("phase:figure1");
  // Single core, GCC, vectorisation enabled where the hardware has it
  // ("best possible configuration", per the paper).
  auto cfg = [](Precision p) {
    SimConfig c;
    c.precision = p;
    c.compiler = CompilerId::Gcc;
    c.vector_mode = VectorMode::VLS;
    c.nthreads = 1;
    c.placement = Placement::Block;
    return c;
  };

  const auto& registry = machine::shared_registry();
  const auto& v1 = registry.descriptor("visionfive-v1");
  const auto& v2 = registry.descriptor("visionfive-v2");
  const auto& sg = pipeline_machine();

  const auto baseline = kernel_times(v2, cfg(Precision::FP64), eng);

  std::vector<RatioSeries> out;
  out.push_back(make_series("VisionFive V1 FP64", baseline,
                            kernel_times(v1, cfg(Precision::FP64), eng)));
  out.push_back(make_series("VisionFive V1 FP32", baseline,
                            kernel_times(v1, cfg(Precision::FP32), eng)));
  out.push_back(make_series("VisionFive V2 FP32", baseline,
                            kernel_times(v2, cfg(Precision::FP32), eng)));
  out.push_back(make_series("SG2042 FP64", baseline,
                            kernel_times(sg, cfg(Precision::FP64), eng)));
  out.push_back(make_series("SG2042 FP32", baseline,
                            kernel_times(sg, cfg(Precision::FP32), eng)));
  return out;
}

ScalingTable scaling_table(Placement placement, SweepEngine& eng) {
  const obs::Span span("phase:scaling_table(" +
                       std::string(machine::to_string(placement)) + ")");
  const auto& sg = pipeline_machine();

  auto cfg = [&](int threads) {
    SimConfig c;
    c.precision = Precision::FP32;  // the paper scales at FP32
    c.compiler = CompilerId::Gcc;
    c.vector_mode = VectorMode::VLS;
    c.nthreads = threads;
    c.placement = placement;
    return c;
  };

  ScalingTable table;
  table.placement = placement;
  table.thread_counts = {2, 4, 8, 16, 32, 64};

  // One grid: the serial baseline plus every scaled thread count.
  std::vector<SimConfig> cfgs;
  cfgs.push_back(cfg(1));
  for (const int n : table.thread_counts) cfgs.push_back(cfg(n));
  const auto& sigs = kernels::all_signatures();
  const auto times = eng.run_grid(sg, sigs, cfgs);
  const std::size_t nsigs = sigs.size();

  for (std::size_t row = 0; row < table.thread_counts.size(); ++row) {
    const int n = table.thread_counts[row];
    for (const Group g : core::all_groups) {
      // Class speedup = arithmetic mean of per-kernel speedups over the
      // serial baseline (grid row 0).
      std::vector<double> v;
      for (std::size_t s = 0; s < nsigs; ++s) {
        if (sigs[s].group == g) {
          v.push_back(times[s].total_s / times[(row + 1) * nsigs + s].total_s);
        }
      }
      ScalingCell cell;
      cell.speedup = report::arithmetic_mean(
          std::span<const double>(v.data(), v.size()));
      cell.parallel_efficiency =
          report::parallel_efficiency(cell.speedup, n);
      table.cells[g].push_back(cell);
    }
  }
  return table;
}

std::vector<RatioSeries> figure2(SweepEngine& eng) {
  const obs::Span span("phase:figure2");
  const auto& sg = pipeline_machine();

  auto cfg = [](Precision p, VectorMode m) {
    SimConfig c;
    c.precision = p;
    c.compiler = CompilerId::Gcc;
    c.vector_mode = m;
    c.nthreads = 1;
    return c;
  };

  std::vector<RatioSeries> out;
  for (const Precision p : {Precision::FP32, Precision::FP64}) {
    const auto scalar = kernel_times(sg, cfg(p, VectorMode::Scalar), eng);
    const auto vector = kernel_times(sg, cfg(p, VectorMode::VLS), eng);
    out.push_back(make_series(
        std::string("vectorised ") + std::string(core::to_string(p)) +
            " vs scalar",
        scalar, vector));
  }
  return out;
}

std::vector<Fig3Row> figure3(SweepEngine& eng) {
  const obs::Span span("phase:figure3");
  const auto& sg = pipeline_machine();

  auto cfg = [](CompilerId comp, VectorMode mode) {
    SimConfig c;
    c.precision = Precision::FP32;  // the paper's Figure 3 runs FP32
    c.compiler = comp;
    c.vector_mode = mode;
    c.nthreads = 1;
    return c;
  };

  const std::vector<std::string> paper_named = {
      "2MM",    "3MM",       "GEMM",      "FLOYD_WARSHALL",
      "HEAT_3D", "JACOBI_1D", "JACOBI_2D"};

  // The table's Polybench entries are one contiguous run; passing them
  // in place keeps the engine on the table's precomputed fingerprints.
  const auto& table = kernels::all_signatures();
  const auto is_poly = [](const core::KernelSignature& sig) {
    return sig.group == Group::Polybench;
  };
  const auto first = std::find_if(table.begin(), table.end(), is_poly);
  const std::span<const core::KernelSignature> poly(
      first, std::find_if_not(first, table.end(), is_poly));
  const SimConfig cfgs[] = {cfg(CompilerId::Gcc, VectorMode::VLS),
                            cfg(CompilerId::Clang, VectorMode::VLA),
                            cfg(CompilerId::Clang, VectorMode::VLS)};
  const auto times = eng.run_grid(sg, poly, cfgs);

  std::vector<Fig3Row> out;
  for (std::size_t s = 0; s < poly.size(); ++s) {
    const auto& sig = poly[s];
    const double t_gcc = times[0 * poly.size() + s].total_s;
    const double t_vla = times[1 * poly.size() + s].total_s;
    const double t_vls = times[2 * poly.size() + s].total_s;
    Fig3Row row;
    row.kernel = sig.name;
    row.clang_vla = report::encode_ratio(t_gcc / t_vla);
    row.clang_vls = report::encode_ratio(t_gcc / t_vls);
    row.gcc_vectorizes = sig.gcc.vectorizes;
    row.gcc_runtime_scalar =
        sig.gcc.vectorizes && !sig.gcc.runtime_vector_path;
    row.clang_vectorizes = sig.clang.vectorizes;
    row.paper_named =
        std::find(paper_named.begin(), paper_named.end(), sig.name) !=
        paper_named.end();
    out.push_back(row);
  }
  return out;
}

int best_sg2042_threads(Group g, Precision prec, SweepEngine& eng) {
  return BestThreads::kCandidates[best_threads_by_group(prec, eng)
                                      .pick[static_cast<std::size_t>(g)]];
}

void reset_best_threads_memo() {}

std::vector<RatioSeries> x86_comparison(Precision prec, bool multithreaded,
                                        SweepEngine& eng) {
  const obs::Span span("phase:x86_comparison(" +
                       std::string(core::to_string(prec)) +
                       (multithreaded ? ",multi)" : ",single)"));
  const auto& sg = pipeline_machine();

  // SG2042 baseline: single core, or the most performant thread count
  // per class with cluster placement (Section 3.2's best practice),
  // read from the search's own grid.
  std::vector<double> baseline;
  if (multithreaded) {
    const auto& sigs = kernels::all_signatures();
    const BestThreads best = best_threads_by_group(prec, eng);
    baseline.reserve(sigs.size());
    for (std::size_t s = 0; s < sigs.size(); ++s) {
      const std::size_t c = best.pick[static_cast<std::size_t>(sigs[s].group)];
      baseline.push_back(best.times[c * sigs.size() + s].total_s);
    }
  } else {
    baseline = kernel_times(sg, best_threads_cfg(prec, 1), eng);
  }

  std::vector<RatioSeries> out;
  for (const auto& x86 : machine::x86_machines()) {
    SimConfig c;
    c.precision = prec;
    c.compiler = CompilerId::Gcc;
    c.vector_mode = VectorMode::VLS;
    c.placement = Placement::Block;
    c.nthreads = multithreaded ? x86.num_cores : 1;
    // Ratio is t_SG2042 / t_x86: positive encoded = x86 faster, matching
    // the paper's Figures 4-7 axes.
    out.push_back(
        make_series(x86.name, baseline, kernel_times(x86, c, eng)));
  }
  return out;
}

}  // namespace sgp::experiments
