// Quickstart: run a few kernels natively (really executing the loops),
// then ask the performance model what the same kernels would do on the
// SG2042 and a modern x86 CPU.
//
//   ./quickstart [size_factor]
#include <cstdlib>
#include <iostream>

#include "experiments/experiments.hpp"
#include "kernels/register_all.hpp"
#include "report/table.hpp"
#include "sim/simulator.hpp"
#include "threading/pool.hpp"

int main(int argc, char** argv) {
  using namespace sgp;

  core::RunParams rp;
  rp.size_factor = argc > 1 ? std::atof(argv[1]) : 0.05;
  rp.rep_factor = 0.02;
  rp.num_threads = 2;

  const auto registry = kernels::make_registry();
  threading::ThreadPool pool(rp.num_threads);

  std::cout << "== Native execution (this machine, " << rp.num_threads
            << " threads, size factor " << rp.size_factor << ") ==\n";
  report::Table native_table(
      {"kernel", "class", "precision", "reps", "ms/rep", "checksum"});
  for (const char* name : {"TRIAD", "DAXPY", "GEMM", "FIR", "JACOBI_2D"}) {
    for (const auto prec :
         {core::Precision::FP32, core::Precision::FP64}) {
      const auto kernel = registry.create(name);
      const auto res = kernel->run_native(prec, rp, pool);
      native_table.add_row(
          {name, std::string(core::to_string(kernel->group())),
           std::string(core::to_string(prec)), std::to_string(res.reps),
           report::Table::num(
               res.seconds / static_cast<double>(res.reps) * 1e3, 3),
           report::Table::num(static_cast<double>(res.checksum), 4)});
    }
  }
  std::cout << native_table.render() << "\n";

  std::cout << "== Model estimates (full problem sizes) ==\n";
  const sim::Simulator sg(machine::sg2042());
  const sim::Simulator rome(machine::amd_rome());
  report::Table model_table({"kernel", "SG2042 1c FP32 ms",
                             "SG2042 32c FP32 ms", "Rome 64c FP32 ms",
                             "code path on C920"});
  for (const char* name : {"TRIAD", "DAXPY", "GEMM", "FIR", "JACOBI_2D"}) {
    const auto& sig = *kernels::find_signature(name);
    sim::SimConfig one;
    one.precision = core::Precision::FP32;
    sim::SimConfig many = one;
    many.nthreads = 32;
    many.placement = machine::Placement::ClusterCyclic;
    sim::SimConfig rome_cfg = one;
    rome_cfg.nthreads = 64;
    const auto bd = sg.run(sig, one);
    model_table.add_row(
        {name, report::Table::num(bd.total_s * 1e3, 2),
         report::Table::num(sg.seconds(sig, many) * 1e3, 2),
         report::Table::num(rome.seconds(sig, rome_cfg) * 1e3, 2),
         bd.note_string(sg.machine().name)});
  }
  std::cout << model_table.render() << "\n";

  std::cout << "Next steps: see examples/placement_explorer and the\n"
               "bench/ binaries, which regenerate every table and figure\n"
               "of the paper.\n";
  return 0;
}
