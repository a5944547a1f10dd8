// Reproduces Table 4: the x86 CPUs compared against, as modelled.
#include <iostream>

#include "bench/bench_common.hpp"
#include "machine/descriptor.hpp"

int main(int argc, char** argv) {
  const auto opt = sgp::bench::parse_bench_args(argc, argv);
  auto& eng = sgp::bench::configure_engine(opt);
  std::cout << "== Table 4: x86 CPUs used to compare against the SG2042 "
               "==\n";
  sgp::report::Table t(
      {"CPU", "Clock", "Cores", "Vector", "FP64 vec", "NUMA", "Mem BW"});
  const auto& machines = sgp::machine::x86_machines();
  for (const auto& m : machines) {
    const auto& v = *m.core.vector;
    t.add_row({m.name,
               sgp::report::Table::num(m.core.clock_ghz, 2) + " GHz",
               std::to_string(m.num_cores),
               v.isa + " " + std::to_string(v.width_bits) + "b",
               v.fp64 ? "yes" : "no", std::to_string(m.numa.size()),
               sgp::report::Table::num(m.total_mem_bw_gbs(), 0) + " GB/s"});
  }
  std::cout << t.render() << "\n";

  if (opt.csv_dir) {
    sgp::check::tab4_csv().write(*opt.csv_dir + "/tab4.csv");
  }
  if (opt.perf) sgp::bench::print_perf(std::cout, eng.counters());
  return 0;
}
