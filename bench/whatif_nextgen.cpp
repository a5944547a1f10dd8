// The paper's closing wishlist, as a what-if study: "for the next
// generation ... it would be very useful to have RVV v1.0 ... FP64
// vectorisation, wider vector registers, increased L1 cache, and more
// memory controllers per NUMA region". Each variant modifies the SG2042
// descriptor accordingly and re-runs the x86 comparison so the gap to
// the AMD Rome CPU can be watched closing.
#include <iostream>

#include "bench/bench_common.hpp"
#include "kernels/register_all.hpp"
#include "report/ratio.hpp"

namespace {

using namespace sgp;

struct Variant {
  const char* name;
  void (*apply)(machine::MachineDescriptor&);
};

// Geometric-mean time ratio Rome/variant over the whole suite (values
// above 1 mean the variant is faster than Rome).
double vs_rome(engine::SweepEngine& eng,
               const machine::MachineDescriptor& variant,
               core::Precision prec) {
  const auto sigs = kernels::all_signatures();

  sim::SimConfig vcfg;
  vcfg.precision = prec;
  vcfg.nthreads = 32;
  vcfg.placement = machine::Placement::ClusterCyclic;
  sim::SimConfig rcfg;
  rcfg.precision = prec;
  rcfg.nthreads = 64;

  const auto rome = eng.run_grid(machine::amd_rome(), sigs, {&rcfg, 1});
  const auto v = eng.run_grid(variant, sigs, {&vcfg, 1});
  std::vector<double> ratios;
  for (std::size_t s = 0; s < sigs.size(); ++s) {
    ratios.push_back(rome[s].total_s / v[s].total_s);
  }
  return report::geometric_mean(ratios);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_args(argc, argv);
  auto& eng = bench::configure_engine(opt);
  const Variant variants[] = {
      {"SG2042 as shipped", [](machine::MachineDescriptor&) {}},
      {"+ FP64 vectorisation",
       [](machine::MachineDescriptor& m) {
         m.core.vector->fp64 = true;
         m.core.vector->efficiency_fp64 = m.core.vector->efficiency_fp32;
       }},
      {"+ 256-bit vectors",
       [](machine::MachineDescriptor& m) {
         m.core.vector->fp64 = true;
         m.core.vector->efficiency_fp64 = m.core.vector->efficiency_fp32;
         m.core.vector->width_bits = 256;
       }},
      {"+ 2 controllers/region",
       [](machine::MachineDescriptor& m) {
         m.core.vector->fp64 = true;
         m.core.vector->efficiency_fp64 = m.core.vector->efficiency_fp32;
         m.core.vector->width_bits = 256;
         for (auto& r : m.numa) {
           r.controllers = 2;
           r.mem_bw_gbs *= 2.0;
         }
         m.oversubscribe_knee = 16.0;  // twice the row-buffer headroom
         m.cluster_bw_gbs *= 2.0;
         m.core.stream_bw_gbs *= 1.5;
       }},
      {"+ 128 KB L1 / better mem",
       [](machine::MachineDescriptor& m) {
         m.core.vector->fp64 = true;
         m.core.vector->efficiency_fp64 = m.core.vector->efficiency_fp32;
         m.core.vector->width_bits = 256;
         for (auto& r : m.numa) {
           r.controllers = 2;
           r.mem_bw_gbs *= 2.0;
         }
         m.oversubscribe_knee = 16.0;
         m.cluster_bw_gbs *= 2.0;
         m.core.stream_bw_gbs *= 1.5;
         m.l1d.size_bytes *= 2;
         m.core.scalar_stream_derate = 0.8;  // better scalar prefetch
       }},
  };

  std::cout << "== What-if: the conclusion's next-generation wishlist ==\n";
  std::cout << "Whole-suite geometric-mean performance vs the 64-core AMD "
               "Rome\n(1.00 = parity; the shipped SG2042 is the first "
               "row).\n\n";

  const std::vector<std::string> headers{"variant (cumulative)",
                                         "vs Rome FP64", "vs Rome FP32"};
  report::Table t(headers);
  report::CsvWriter csv(headers);
  for (const auto& variant : variants) {
    auto m = machine::sg2042();
    variant.apply(m);
    m.validate();
    std::vector<std::string> row{
        variant.name,
        report::Table::num(vs_rome(eng, m, core::Precision::FP64), 3),
        report::Table::num(vs_rome(eng, m, core::Precision::FP32), 3)};
    csv.add_row(row);
    t.add_row(std::move(row));
  }
  std::cout << t.render() << "\n";
  std::cout << "Each row adds one wishlist item on top of the previous "
               "row, so the\nlast row is the paper's full hypothetical "
               "next-generation part.\n";
  if (opt.csv_dir) csv.write(*opt.csv_dir + "/whatif_nextgen.csv");
  if (opt.perf) bench::print_perf(std::cout, eng.counters());
  return 0;
}
