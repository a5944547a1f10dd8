#include "experiments/experiments.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
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

const std::vector<core::KernelSignature>& signatures() {
  static const std::vector<core::KernelSignature> sigs =
      kernels::all_signatures();
  return sigs;
}

/// Per-kernel ratios baseline/subject.
std::map<std::string, double> time_ratios(
    const std::map<std::string, double>& baseline,
    const std::map<std::string, double>& subject) {
  std::map<std::string, double> out;
  for (const auto& [name, tb] : baseline) {
    const auto it = subject.find(name);
    if (it == subject.end()) {
      throw std::logic_error("time_ratios: missing kernel " + name);
    }
    out[name] = tb / it->second;
  }
  return out;
}

RatioSeries make_series(std::string label,
                        const std::map<std::string, double>& baseline,
                        const std::map<std::string, double>& subject) {
  RatioSeries s;
  s.label = std::move(label);
  s.per_kernel_ratio = time_ratios(baseline, subject);
  s.groups = summarize_by_group(s.per_kernel_ratio, suite_groups());
  return s;
}

/// SimConfig for best_sg2042_threads candidates (cluster placement).
SimConfig best_threads_cfg(Precision prec, int n) {
  SimConfig c;
  c.precision = prec;
  c.compiler = CompilerId::Gcc;
  c.vector_mode = VectorMode::VLS;
  c.nthreads = n;
  c.placement = Placement::ClusterCyclic;
  return c;
}

/// Unmemoized kernel of best_sg2042_threads: sums the class's times at
/// each candidate thread count in suite order, exactly as the historic
/// serial loop did, so the winner (including tie-breaks) is unchanged.
int best_threads_uncached(Group g, Precision prec, SweepEngine& eng) {
  const auto& sg = pipeline_machine();
  std::vector<core::KernelSignature> group_sigs;
  for (const auto& sig : signatures()) {
    if (sig.group == g) group_sigs.push_back(sig);
  }
  const SimConfig cfgs[] = {best_threads_cfg(prec, 32),
                            best_threads_cfg(prec, 64)};
  const auto times = eng.run_grid(sg, group_sigs, cfgs);
  double best_time = 0.0;
  int best_n = 32;
  const int candidates[] = {32, 64};
  for (std::size_t c = 0; c < 2; ++c) {
    double total = 0.0;
    for (std::size_t s = 0; s < group_sigs.size(); ++s) {
      total += times[c * group_sigs.size() + s].total_s;
    }
    if (best_time == 0.0 || total < best_time) {
      best_time = total;
      best_n = candidates[c];
    }
  }
  return best_n;
}

std::mutex best_threads_mu;
std::map<std::pair<Group, Precision>, int> best_threads_memo;

}  // namespace

const machine::MachineDescriptor& pipeline_machine() {
  return machine::shared_registry().descriptor("sg2042");
}

const std::map<std::string, core::Group>& suite_groups() {
  static const std::map<std::string, core::Group> groups = [] {
    std::map<std::string, core::Group> out;
    for (const auto& sig : signatures()) out[sig.name] = sig.group;
    return out;
  }();
  return groups;
}

std::map<std::string, double> kernel_times(
    const machine::MachineDescriptor& m, const SimConfig& cfg,
    SweepEngine& eng) {
  const SimConfig cfgs[] = {cfg};
  const auto times = eng.run_grid(m, signatures(), cfgs);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < signatures().size(); ++i) {
    out[signatures()[i].name] = times[i].total_s;
  }
  return out;
}

std::map<std::string, double> kernel_times(
    const machine::MachineDescriptor& m, const SimConfig& cfg) {
  return kernel_times(m, cfg, engine::shared_engine());
}

std::vector<GroupRatios> summarize_by_group(
    const std::map<std::string, double>& ratios,
    const std::map<std::string, core::Group>& groups) {
  std::vector<GroupRatios> out;
  for (const Group g : core::all_groups) {
    std::vector<double> encoded;
    for (const auto& [name, r] : ratios) {
      const auto it = groups.find(name);
      if (it != groups.end() && it->second == g) {
        encoded.push_back(report::encode_ratio(r));
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

std::vector<RatioSeries> figure1() {
  return figure1(engine::shared_engine());
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
  const auto times = eng.run_grid(sg, signatures(), cfgs);
  const std::size_t nsigs = signatures().size();

  // Serial baseline per kernel (grid row 0).
  std::map<std::string, double> t1;
  for (std::size_t s = 0; s < nsigs; ++s) {
    t1[signatures()[s].name] = times[s].total_s;
  }

  for (const Group g : core::all_groups) {
    table.cells[g] = {};
  }
  for (std::size_t row = 0; row < table.thread_counts.size(); ++row) {
    const int n = table.thread_counts[row];
    // Class speedup = arithmetic mean of per-kernel speedups.
    std::map<Group, std::vector<double>> per_group;
    for (std::size_t s = 0; s < nsigs; ++s) {
      const auto& sig = signatures()[s];
      const double tn = times[(row + 1) * nsigs + s].total_s;
      per_group[sig.group].push_back(t1[sig.name] / tn);
    }
    for (const Group g : core::all_groups) {
      const auto& v = per_group[g];
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

ScalingTable scaling_table(Placement placement) {
  return scaling_table(placement, engine::shared_engine());
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

std::vector<RatioSeries> figure2() {
  return figure2(engine::shared_engine());
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

  std::vector<core::KernelSignature> poly;
  for (const auto& sig : signatures()) {
    if (sig.group == Group::Polybench) poly.push_back(sig);
  }
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

std::vector<Fig3Row> figure3() {
  return figure3(engine::shared_engine());
}

int best_sg2042_threads(Group g, Precision prec, SweepEngine& eng) {
  {
    std::lock_guard<std::mutex> lock(best_threads_mu);
    const auto it = best_threads_memo.find({g, prec});
    if (it != best_threads_memo.end()) return it->second;
  }
  const int best = best_threads_uncached(g, prec, eng);
  std::lock_guard<std::mutex> lock(best_threads_mu);
  best_threads_memo.emplace(std::make_pair(g, prec), best);
  return best;
}

int best_sg2042_threads(Group g, Precision prec) {
  return best_sg2042_threads(g, prec, engine::shared_engine());
}

void reset_best_threads_memo() {
  std::lock_guard<std::mutex> lock(best_threads_mu);
  best_threads_memo.clear();
}

std::vector<RatioSeries> x86_comparison(Precision prec, bool multithreaded,
                                        SweepEngine& eng) {
  const obs::Span span("phase:x86_comparison(" +
                       std::string(core::to_string(prec)) +
                       (multithreaded ? ",multi)" : ",single)"));
  const auto& sg = pipeline_machine();

  // SG2042 baseline: single core, or the most performant thread count
  // per class with cluster placement (Section 3.2's best practice).
  std::map<std::string, double> baseline;
  {
    SimConfig c;
    c.precision = prec;
    c.compiler = CompilerId::Gcc;
    c.vector_mode = VectorMode::VLS;
    c.placement = Placement::ClusterCyclic;
    std::vector<engine::SweepPoint> points;
    points.reserve(signatures().size());
    for (const auto& sig : signatures()) {
      c.nthreads =
          multithreaded ? best_sg2042_threads(sig.group, prec, eng) : 1;
      points.push_back(engine::SweepPoint{&sg, &sig, c});
    }
    const auto times = eng.run_batch(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
      baseline[points[i].signature->name] = times[i].total_s;
    }
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

std::vector<RatioSeries> x86_comparison(Precision prec,
                                        bool multithreaded) {
  return x86_comparison(prec, multithreaded, engine::shared_engine());
}

}  // namespace sgp::experiments
