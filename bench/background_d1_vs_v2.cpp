// Reproduces the paper's Section 2.2 background claim (from its own
// prior study [10]): "whilst the U74 core in the VisionFive V2 tended to
// outperform the C906 for scalar workloads, when enabling vectorisation
// the C906 then most often outperformed the U74."
#include <iostream>

#include "bench/bench_common.hpp"
#include "kernels/register_all.hpp"
#include "report/ratio.hpp"

int main(int argc, char** argv) {
  using namespace sgp;

  const auto opt = bench::parse_bench_args(argc, argv);
  auto& eng = bench::configure_engine(opt);

  const auto v2 = machine::visionfive_v2();
  const auto d1 = machine::allwinner_d1();

  // The prior study drove the C906's vector unit through Clang (plus
  // the rollback tool), which vectorises 59 of the 64 kernels.
  auto cfg = [](core::VectorMode mode, core::CompilerId comp) {
    sim::SimConfig c;
    c.precision = core::Precision::FP32;
    c.vector_mode = mode;
    c.compiler = comp;
    c.nthreads = 1;
    return c;
  };

  // The U74 has no vector unit, so its "vector" build is scalar anyway.
  const auto u74 = experiments::kernel_times(
      v2, cfg(core::VectorMode::VLS, core::CompilerId::Gcc), eng);
  const auto c906_scalar = experiments::kernel_times(
      d1, cfg(core::VectorMode::Scalar, core::CompilerId::Gcc), eng);
  const auto c906_vector = experiments::kernel_times(
      d1, cfg(core::VectorMode::VLS, core::CompilerId::Clang), eng);

  int scalar_u74_wins = 0, vector_c906_wins = 0, total = 0;
  double scalar_sum = 0.0, vector_sum = 0.0;
  for (std::size_t i = 0; i < u74.size(); ++i) {
    ++total;
    const double scalar_ratio = c906_scalar[i] / u74[i];  // >1: U74 wins
    const double vector_ratio = c906_vector[i] / u74[i];
    if (scalar_ratio > 1.0) ++scalar_u74_wins;
    if (vector_ratio < 1.0) ++vector_c906_wins;
    scalar_sum += scalar_ratio;
    vector_sum += vector_ratio;
  }

  std::cout << "== Background (paper Section 2.2 / prior study [10]): "
               "AllWinner D1 (C906) vs VisionFive V2 (U74), FP32, single "
               "core ==\n\n";
  report::Table t({"configuration", "kernels won", "of", "avg t(C906)/t(U74)"});
  t.add_row({"C906 scalar vs U74", std::to_string(total - scalar_u74_wins),
             std::to_string(total),
             report::Table::num(scalar_sum / total, 2)});
  t.add_row({"C906 vectorised vs U74", std::to_string(vector_c906_wins),
             std::to_string(total),
             report::Table::num(vector_sum / total, 2)});
  std::cout << t.render() << "\n";
  std::cout << "Paper: the U74 wins scalar; with RVV enabled the C906 "
               "most often wins.\n";

  if (opt.csv_dir) {
    report::CsvWriter csv({"kernel", "u74_s", "c906_scalar_s",
                           "c906_vector_s"});
    for (std::size_t i = 0; i < u74.size(); ++i) {
      csv.add_row({kernels::all_signatures()[i].name,
                   report::Table::num(u74[i], 6),
                   report::Table::num(c906_scalar[i], 6),
                   report::Table::num(c906_vector[i], 6)});
    }
    csv.write(*opt.csv_dir + "/background_d1.csv");
  }
  if (opt.perf) bench::print_perf(std::cout, eng.counters());
  return 0;
}
