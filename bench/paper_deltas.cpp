// Quantified fidelity report: every speedup cell of the paper's
// Tables 1-3 (hard-coded from the publication) next to the model's
// value, with the ratio between them. This is the numeric companion to
// EXPERIMENTS.md.
#include <cmath>
#include <iostream>

#include "bench/bench_common.hpp"

namespace {

using namespace sgp;

// Paper speedup cells, rows = threads {2,4,8,16,32,64}, columns =
// {Algorithm, Apps, Basic, Lcals, Polybench, Stream}.
using TableData = double[6][6];

constexpr TableData kPaperTable1 = {
    // block placement
    {1.19, 0.66, 1.02, 1.61, 1.86, 1.00},
    {1.12, 1.14, 1.81, 1.82, 3.46, 0.97},
    {2.02, 2.27, 3.55, 3.27, 7.72, 1.88},
    {4.64, 4.31, 6.92, 6.86, 15.39, 4.31},
    {1.11, 1.86, 0.22, 4.38, 14.09, 0.82},
    {0.97, 4.10, 12.33, 14.89, 40.42, 1.77},
};

constexpr TableData kPaperTable2 = {
    // cyclic placement
    {1.52, 0.70, 1.06, 1.81, 2.11, 1.93},
    {3.21, 1.37, 2.09, 3.61, 4.11, 4.19},
    {4.72, 2.64, 3.96, 6.08, 8.15, 4.46},
    {4.55, 4.32, 6.97, 7.12, 15.07, 4.19},
    {6.10, 6.32, 13.11, 14.84, 30.05, 13.91},
    {2.09, 4.31, 17.29, 26.53, 57.93, 1.62},
};

constexpr TableData kPaperTable3 = {
    // cluster placement
    {1.52, 0.70, 1.06, 1.81, 2.11, 1.93},
    {3.21, 1.37, 2.09, 3.61, 4.11, 4.19},
    {6.37, 2.71, 4.16, 7.15, 8.23, 11.20},
    {10.54, 5.13, 8.09, 13.55, 16.51, 11.60},
    {12.72, 8.77, 14.05, 21.29, 31.76, 15.18},
    {1.98, 3.69, 17.30, 17.70, 58.26, 1.51},
};

struct Accum {
  double log_sum = 0.0;
  double abs_log_sum = 0.0;
  int n = 0;
  int within_2x = 0;
  void add(double paper, double model) {
    const double r = model / paper;
    log_sum += std::log(r);
    abs_log_sum += std::abs(std::log(r));
    if (r >= 0.5 && r <= 2.0) ++within_2x;
    ++n;
  }
};

void compare(engine::SweepEngine& eng, const char* title,
             machine::Placement placement, const TableData& paper,
             Accum& global, report::CsvWriter& csv) {
  const auto table = experiments::scaling_table(placement, eng);
  std::cout << "== " << title << " ==\n";
  std::vector<std::string> headers{"threads"};
  for (const auto g : core::all_groups) {
    headers.push_back(std::string(core::to_string(g)) +
                      " paper/model");
  }
  report::Table t(headers);
  Accum local;
  for (std::size_t row = 0; row < 6; ++row) {
    std::vector<std::string> cells{
        std::to_string(table.thread_counts[row])};
    for (std::size_t col = 0; col < core::all_groups.size(); ++col) {
      const double model =
          table.cells.at(core::all_groups[col])[row].speedup;
      const double p = paper[row][col];
      local.add(p, model);
      global.add(p, model);
      csv.add_row({std::string(machine::to_string(placement)),
                   std::to_string(table.thread_counts[row]),
                   std::string(core::to_string(core::all_groups[col])),
                   report::Table::num(p, 2), report::Table::num(model, 2)});
      cells.push_back(report::Table::num(p, 2) + " / " +
                      report::Table::num(model, 2));
    }
    t.add_row(std::move(cells));
  }
  std::cout << t.render();
  std::cout << "geo-mean model/paper: "
            << report::Table::num(std::exp(local.log_sum / local.n), 2)
            << ", median-ish |log error|: "
            << report::Table::num(std::exp(local.abs_log_sum / local.n), 2)
            << "x, cells within 2x: " << local.within_2x << "/" << local.n
            << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_bench_args(argc, argv);
  auto& eng = bench::configure_engine(opt);
  std::cout << "Per-cell fidelity of the SG2042 scaling tables "
               "(speedups; paper value / model value).\n\n";
  Accum global;
  report::CsvWriter csv({"placement", "threads", "class", "paper", "model"});
  compare(eng, "Table 1 (block)", machine::Placement::Block, kPaperTable1,
          global, csv);
  compare(eng, "Table 2 (cyclic)", machine::Placement::CyclicNuma,
          kPaperTable2, global, csv);
  compare(eng, "Table 3 (cluster)", machine::Placement::ClusterCyclic,
          kPaperTable3, global, csv);

  std::cout << "== Overall ==\n";
  std::cout << "cells within 2x of the paper: " << global.within_2x << "/"
            << global.n << " ("
            << report::Table::num(100.0 * global.within_2x / global.n, 0)
            << "%)\n";
  std::cout << "geometric-mean multiplicative error: "
            << report::Table::num(std::exp(global.abs_log_sum / global.n),
                                  2)
            << "x\n";
  if (opt.csv_dir) csv.write(*opt.csv_dir + "/paper_deltas.csv");
  if (opt.perf) bench::print_perf(std::cout, eng.counters());
  return 0;
}
