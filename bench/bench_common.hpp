// Shared CLI parsing and printing/CSV helpers for the reproduction
// binaries. Every binary accepts:
//   --csv <dir>       also write CSV artifacts into <dir>
//   --perf            print the engine's perf counters after the pipeline
//   --trace <file>    write a Chrome trace_event JSON at exit
//   --metrics <file>  write a run manifest (+ metrics snapshot) at exit
// Unknown or incomplete flags are usage errors (exit 64, matching
// suite_cli's conventions) instead of being silently ignored.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/artifacts.hpp"
#include "engine/engine.hpp"
#include "experiments/experiments.hpp"
#include "machine/descriptor.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

namespace sgp::bench {

struct BenchOptions {
  std::optional<std::string> csv_dir;
  bool perf = false;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::string tool;  ///< argv[0] basename, stamped into the manifest
};

/// Strict argv parser for the flags above. Prints a usage message and
/// exits with code 64 on an unknown flag, a flag missing its value, or
/// a malformed number.
inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  {
    const std::string self = argv[0];
    const std::size_t slash = self.find_last_of('/');
    opt.tool = slash == std::string::npos ? self : self.substr(slash + 1);
  }
  auto usage_error = [&](const std::string& what) {
    std::cerr << argv[0] << ": " << what << "\n"
              << "usage: " << argv[0]
              << " [--csv <dir>] [--perf]"
                 " [--trace <file>] [--metrics <file>]\n";
    std::exit(64);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--csv") {
      opt.csv_dir = value();
    } else if (arg == "--perf") {
      opt.perf = true;
    } else if (arg == "--trace") {
      opt.trace_path = value();
    } else if (arg == "--metrics") {
      opt.metrics_path = value();
    } else {
      usage_error("unknown flag '" + arg + "'");
    }
  }
  return opt;
}

/// 16-hex-digit rendering of a fingerprint, for the manifest.
inline std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17] = {};
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

namespace detail {

/// Static storage for the at-exit observability finalizer. Plain
/// function statics (not members) so the paths outlive main() and the
/// atexit callback captures nothing.
inline std::string& exit_trace_path() {
  static std::string p;
  return p;
}
inline std::string& exit_metrics_path() {
  static std::string p;
  return p;
}
inline std::string& exit_tool() {
  static std::string t;
  return t;
}

/// Writes the trace and/or manifest requested via --trace/--metrics.
/// Runs via atexit, so it fires on every exit path that reaches the
/// C++ runtime (including std::exit from usage errors after the flags
/// were parsed). Any failure — I/O or a malformed artifact — aborts
/// the process with exit 70 so smoke tests can assert well-formedness.
inline void obs_exit_finalizer() {
  const auto fail = [](const char* what) {
    std::fprintf(stderr, "observability finalizer: %s\n", what);
    std::_Exit(70);
  };
  try {
    if (!exit_trace_path().empty()) {
      const std::string json = obs::Tracer::instance().chrome_trace_json();
      if (const auto err = obs::json_error(json)) fail(err->c_str());
      std::ofstream out(exit_trace_path(), std::ios::binary);
      out << json;
      if (!out.flush()) fail("cannot write trace file");
    }
    if (!exit_metrics_path().empty()) {
      obs::RunManifest man(exit_tool());
      man.add("host", "hardware_concurrency",
              static_cast<std::uint64_t>(
                  std::thread::hardware_concurrency()));
      for (const auto& m : machine::all_machines()) {
        man.add("machines", m.name,
                fingerprint_hex(engine::machine_fingerprint(m)));
      }
      const engine::SweepEngine& eng = engine::shared_engine();
      const engine::EngineCounters c = eng.counters();
      man.add("engine", "requests", c.requests);
      man.add("engine", "simulations", c.simulations);
      man.add("engine", "simulators_built", c.simulators_built);
      man.add("engine", "batches", c.batches);
      man.write(exit_metrics_path(), obs::registry().snapshot());
    }
  } catch (const std::exception& e) {
    fail(e.what());
  } catch (...) {
    fail("unknown error");
  }
}

}  // namespace detail

/// Arms --trace/--metrics for the process-wide engine the pipelines run
/// on (tracing on + an atexit finalizer that writes the artifacts —
/// every binary using parse_bench_args/configure_engine gains both
/// flags with no further code), and returns the engine so --perf can
/// read the counters afterwards.
inline engine::SweepEngine& configure_engine(const BenchOptions& opt) {
  engine::SweepEngine& eng = engine::shared_engine();
  if (opt.trace_path || opt.metrics_path) {
    detail::exit_trace_path() = opt.trace_path.value_or("");
    detail::exit_metrics_path() = opt.metrics_path.value_or("");
    detail::exit_tool() = opt.tool.empty() ? "bench" : opt.tool;
    if (opt.trace_path) obs::Tracer::instance().enable();
    std::atexit(&detail::obs_exit_finalizer);
  }
  return eng;
}

/// Prints the engine's perf counters (the --perf flag).
inline void print_perf(std::ostream& out,
                       const engine::EngineCounters& c) {
  out << "== engine perf counters ==\n";
  out << "requests:         " << c.requests << "\n";
  out << "simulations run:  " << c.simulations << "\n";
  out << "simulators built: " << c.simulators_built << "\n";
  out << "batches:          " << c.batches << "\n";
}

/// Prints a figure-style series set (one row per class, one column pair
/// per series: mean and min..max whiskers, in the paper's encoding).
inline void print_series(const std::string& title,
                         const std::vector<experiments::RatioSeries>& series) {
  std::cout << "== " << title << " ==\n";
  std::cout << "(encoding: 0 = same speed, +1 = 2x faster, -1 = 2x "
               "slower than baseline)\n";
  std::vector<std::string> headers{"class"};
  for (const auto& s : series) {
    headers.push_back(s.label + " avg");
    headers.push_back("whisker");
  }
  report::Table t(headers);
  for (std::size_t g = 0; g < core::all_groups.size(); ++g) {
    std::vector<std::string> row{
        std::string(core::to_string(core::all_groups[g]))};
    for (const auto& s : series) {
      const auto& gr = s.groups[g];
      row.push_back(report::Table::num(gr.mean, 2));
      std::string whisker = "[";
      whisker += report::Table::num(gr.min, 2);
      whisker += ", ";
      whisker += report::Table::num(gr.max, 2);
      whisker += "]";
      row.push_back(std::move(whisker));
    }
    t.add_row(std::move(row));
  }
  std::cout << t.render() << "\n";
}

/// Writes a series set as CSV (long format). The rendering lives in
/// check/artifacts so the golden differential runner checks the exact
/// format the bench binaries emit.
inline void write_series_csv(const std::string& path,
                             const std::vector<experiments::RatioSeries>& s) {
  check::series_csv(s).write(path);
}

/// Prints a Tables 1-3 style scaling table.
inline void print_scaling(const std::string& title,
                          const experiments::ScalingTable& table) {
  std::cout << "== " << title << " ==\n";
  std::vector<std::string> headers{"Threads"};
  for (const auto g : core::all_groups) {
    headers.push_back(std::string(core::to_string(g)) + " SU");
    headers.push_back("PE");
  }
  report::Table t(headers);
  for (std::size_t i = 0; i < table.thread_counts.size(); ++i) {
    std::vector<std::string> row{
        std::to_string(table.thread_counts[i])};
    for (const auto g : core::all_groups) {
      const auto& cell = table.cells.at(g)[i];
      row.push_back(report::Table::num(cell.speedup, 2));
      row.push_back(report::Table::num(cell.parallel_efficiency, 2));
    }
    t.add_row(std::move(row));
  }
  std::cout << t.render() << "\n";
}

/// Writes a Tables 1-3 style scaling table as CSV (see write_series_csv
/// on why this delegates to check/artifacts).
inline void write_scaling_csv(const std::string& path,
                              const experiments::ScalingTable& table) {
  check::scaling_csv(table).write(path);
}

}  // namespace sgp::bench
