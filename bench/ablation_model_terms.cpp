// Ablation study over the performance model's design choices (the
// mechanisms DESIGN.md claims explain the paper's shapes). For each
// ablated term we regenerate the Table-1/3 stream rows and report how
// the paper's signature pathologies react:
//   * no cluster mesh-port cap  -> block-4 stops being flat;
//   * no oversubscription knee  -> the block-32 dip and the 64-thread
//     collapse disappear;
//   * no sync cost              -> tiny-loop kernels stop limiting apps;
//   * no scalar-stream derate   -> FP64/scalar memory kernels speed up
//     and Figure 2's stream benefit vanishes.
#include <iostream>

#include "bench/bench_common.hpp"
#include "kernels/register_all.hpp"

namespace {

using namespace sgp;

struct Ablation {
  const char* name;
  void (*apply)(machine::MachineDescriptor&);
};

std::vector<core::KernelSignature> stream_signatures() {
  std::vector<core::KernelSignature> out;
  for (const auto& sig : kernels::all_signatures()) {
    if (sig.group == core::Group::Stream) out.push_back(sig);
  }
  return out;
}

/// Mean over the stream kernels of t(baseline) / t(variant); the two
/// configs are priced as one engine grid.
double mean_stream_ratio(engine::SweepEngine& eng,
                         const machine::MachineDescriptor& m,
                         const sim::SimConfig& baseline,
                         const sim::SimConfig& variant) {
  const auto sigs = stream_signatures();
  const sim::SimConfig cfgs[] = {baseline, variant};
  const auto t = eng.run_grid(m, sigs, cfgs);
  double sum = 0.0;
  for (std::size_t s = 0; s < sigs.size(); ++s) {
    sum += t[s].total_s / t[sigs.size() + s].total_s;
  }
  return sum / static_cast<double>(sigs.size());
}

double stream_speedup(engine::SweepEngine& eng,
                      const machine::MachineDescriptor& m, int threads,
                      machine::Placement placement) {
  sim::SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  cfg.placement = placement;
  cfg.nthreads = 1;
  sim::SimConfig scaled = cfg;
  scaled.nthreads = threads;
  return mean_stream_ratio(eng, m, cfg, scaled);
}

double fig2_stream_benefit(engine::SweepEngine& eng,
                           const machine::MachineDescriptor& m) {
  sim::SimConfig scalar, vec;
  scalar.precision = vec.precision = core::Precision::FP32;
  scalar.vector_mode = core::VectorMode::Scalar;
  return mean_stream_ratio(eng, m, scalar, vec);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_args(argc, argv);
  auto& eng = bench::configure_engine(opt);
  const Ablation ablations[] = {
      {"full model", [](machine::MachineDescriptor&) {}},
      {"no cluster port cap",
       [](machine::MachineDescriptor& m) { m.cluster_bw_gbs = 0.0; }},
      {"no oversubscription knee",
       [](machine::MachineDescriptor& m) { m.oversubscribe_gamma = 0.0; }},
      {"no sync cost",
       [](machine::MachineDescriptor& m) {
         m.fork_join_us = 0.0;
         m.barrier_us_per_thread = 0.0;
       }},
      {"no scalar stream derate",
       [](machine::MachineDescriptor& m) {
         m.core.scalar_stream_derate = 1.0;
       }},
  };

  std::cout << "== Ablation: which model terms produce the paper's "
               "pathologies? ==\n";
  std::cout << "(stream-class speedups on the SG2042, FP32; paper values: "
               "block-4 ~1.0, block-16 ~4.3, block-32 ~0.8, cluster-32 "
               "~15, any-64 ~1.5-1.8; fig2 stream vec/scalar ~2x)\n\n";

  const std::vector<std::string> headers{
      "model variant", "block-4",    "block-16",   "block-32",
      "cluster-32",    "cluster-64", "fig2 stream"};
  report::Table t(headers);
  report::CsvWriter csv(headers);
  for (const auto& a : ablations) {
    auto m = machine::sg2042();
    a.apply(m);
    const auto speedup = [&](int threads, machine::Placement p) {
      return report::Table::num(stream_speedup(eng, m, threads, p), 2);
    };
    std::vector<std::string> row{
        a.name,
        speedup(4, machine::Placement::Block),
        speedup(16, machine::Placement::Block),
        speedup(32, machine::Placement::Block),
        speedup(32, machine::Placement::ClusterCyclic),
        speedup(64, machine::Placement::ClusterCyclic),
        report::Table::num(fig2_stream_benefit(eng, m), 2)};
    csv.add_row(row);
    t.add_row(std::move(row));
  }
  std::cout << t.render() << "\n";
  std::cout
      << "Reading: the cluster cap flattens block-4, the knee creates\n"
         "both the block-32 dip and the 64-thread collapse, and the\n"
         "scalar-stream derate is what gives FP32 vectorisation its\n"
         "bandwidth benefit on stream kernels.\n";
  if (opt.csv_dir) csv.write(*opt.csv_dir + "/ablation_model_terms.csv");
  if (opt.perf) bench::print_perf(std::cout, eng.counters());
  return 0;
}
