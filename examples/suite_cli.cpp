// suite_cli: a RAJAPerf-style command-line driver for the native suite.
// Runs kernels for real on this machine, one run per kernel and
// precision, and prints per-kernel timings, checksums and per-class
// summaries.
//
//   ./suite_cli [options]
//     --group <name>        run one class (Algorithm, Apps, Basic, Lcals,
//                           Polybench, Stream); default: all
//     --kernel <name>       run one kernel (repeatable via comma list)
//     --precision <p>       fp32 | fp64 | both (default both)
//     --threads <n>         worker threads (default 1)
//     --size-factor <f>     problem size multiplier (default 0.05)
//     --rep-factor <f>      rep count multiplier (default 0.05)
//     --csv <path>          also write a CSV
//     --trace <file>        write a Chrome trace_event JSON (open in
//                           about:tracing or Perfetto)
//     --metrics <file>      write a run manifest + metrics snapshot
//     --machine <name>      simulated mode: instead of running kernels
//                           natively, price the selected suite on the
//                           named machine descriptor through the sweep
//                           engine (machine::shared_registry() resolves
//                           the name; unknown names exit 64 with a
//                           did-you-mean hint)
//     --machine-dir <dir>   register every *.ini machine pack in <dir>
//                           into the registry before resolving
//                           --machine (see docs/MACHINES.md)
//
// Exit codes: 0 = every kernel ran with a finite checksum, 2 = fatal
// error (unknown kernel, a kernel that throws or returns a non-finite
// checksum, an unwritable output file), 64 = usage error.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "kernels/register_all.hpp"
#include "machine/registry.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "threading/pool.hpp"

namespace {

using namespace sgp;

struct Options {
  std::optional<core::Group> group;
  std::vector<std::string> kernels;
  std::vector<core::Precision> precisions{core::Precision::FP32,
                                          core::Precision::FP64};
  core::RunParams rp;
  std::optional<std::string> csv_path;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> machine;
  std::vector<std::string> machine_dirs;
};

std::optional<core::Group> parse_group(const std::string& s) {
  for (const auto g : core::all_groups) {
    if (s == core::to_string(g)) return g;
  }
  return std::nullopt;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.rp.size_factor = 0.05;
  opt.rp.rep_factor = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    auto next_int = [&]() {
      const auto v = next();
      try {
        std::size_t pos = 0;
        const int x = std::stoi(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
        return x;
      } catch (const std::exception&) {
        throw std::invalid_argument("bad value '" + v + "' for " + arg);
      }
    };
    auto next_double = [&]() {
      const auto v = next();
      try {
        std::size_t pos = 0;
        const double x = std::stod(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
        return x;
      } catch (const std::exception&) {
        throw std::invalid_argument("bad value '" + v + "' for " + arg);
      }
    };
    if (arg == "--group") {
      const auto v = next();
      opt.group = parse_group(v);
      if (!opt.group) throw std::invalid_argument("unknown group " + v);
    } else if (arg == "--kernel") {
      for (auto& k : split_commas(next())) opt.kernels.push_back(k);
    } else if (arg == "--precision") {
      const auto v = next();
      if (v == "fp32") {
        opt.precisions = {core::Precision::FP32};
      } else if (v == "fp64") {
        opt.precisions = {core::Precision::FP64};
      } else if (v != "both") {
        throw std::invalid_argument("unknown precision " + v);
      }
    } else if (arg == "--threads") {
      opt.rp.num_threads = next_int();
    } else if (arg == "--size-factor") {
      opt.rp.size_factor = next_double();
    } else if (arg == "--rep-factor") {
      opt.rp.rep_factor = next_double();
    } else if (arg == "--csv") {
      opt.csv_path = next();
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else if (arg == "--metrics") {
      opt.metrics_path = next();
    } else if (arg == "--machine") {
      opt.machine = next();
    } else if (arg == "--machine-dir") {
      opt.machine_dirs.push_back(next());
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  return opt;
}

/// Writes the --trace/--metrics artifacts. Throws on I/O failure or —
/// defensively — if either artifact fails its own JSON validation.
void write_observability(const Options& opt) {
  if (opt.trace_path) {
    const std::string json = obs::Tracer::instance().chrome_trace_json();
    if (const auto err = obs::json_error(json)) {
      throw std::runtime_error("trace JSON invalid: " + *err);
    }
    std::ofstream out(*opt.trace_path, std::ios::binary);
    out << json;
    if (!out.flush()) {
      throw std::runtime_error("cannot write " + *opt.trace_path);
    }
  }
  if (opt.metrics_path) {
    obs::RunManifest man("suite_cli");
    man.add("run", "threads",
            static_cast<std::int64_t>(opt.rp.num_threads));
    man.add("run", "size_factor", opt.rp.size_factor);
    man.add("run", "rep_factor", opt.rp.rep_factor);
    man.write(*opt.metrics_path, obs::registry().snapshot());
  }
}

/// Simulated mode (--machine): prices the selected kernels on a
/// registry-resolved machine descriptor through the shared sweep
/// engine, instead of executing them natively. One grid call per
/// precision; the table carries the model's time breakdown.
int run_simulated(const Options& opt) {
  const machine::MachineDescriptor* m = nullptr;
  try {
    m = &machine::shared_registry().descriptor(*opt.machine);
  } catch (const std::out_of_range& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 64;
  }
  if (opt.rp.num_threads > m->num_cores) {
    std::cerr << "error: --threads " << opt.rp.num_threads
              << " exceeds the " << m->num_cores << " cores of '"
              << *opt.machine << "'\n";
    return 64;
  }

  // Same kernel selection rules as the native path, resolved against
  // the model signatures instead of the native registry.
  std::vector<core::KernelSignature> sigs;
  if (!opt.kernels.empty()) {
    for (const auto& name : opt.kernels) {
      const core::KernelSignature* sig = kernels::find_signature(name);
      if (sig == nullptr) {
        std::cerr << "error: unknown kernel '" << name << "'\n";
        return 64;
      }
      sigs.push_back(*sig);
    }
  } else {
    for (const auto& s : kernels::all_signatures()) {
      if (!opt.group || s.group == *opt.group) sigs.push_back(s);
    }
  }

  std::vector<sim::SimConfig> cfgs;
  cfgs.reserve(opt.precisions.size());
  for (const auto prec : opt.precisions) {
    sim::SimConfig cfg;
    cfg.precision = prec;
    cfg.nthreads = opt.rp.num_threads;
    cfgs.push_back(cfg);
  }

  auto& eng = engine::shared_engine();
  const auto times = eng.run_grid(*m, sigs, cfgs);

  std::cout << "simulated suite on " << m->name << " (" << m->num_cores
            << " cores, " << opt.rp.num_threads << " threads)\n\n";
  report::Table t({"kernel", "class", "precision", "est ms/rep",
                   "est total s", "serving", "path"});
  report::CsvWriter csv({"kernel", "class", "precision", "threads",
                         "est_seconds", "compute_s", "memory_s", "sync_s",
                         "serving", "vector_path"});
  std::map<core::Group, std::pair<double, int>> class_time;
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    for (std::size_t s = 0; s < sigs.size(); ++s) {
      const auto& sig = sigs[s];
      const auto& tb = times[c * sigs.size() + s];
      const auto prec = core::to_string(cfgs[c].precision);
      t.add_row({sig.name, std::string(core::to_string(sig.group)),
                 std::string(prec),
                 report::Table::num(tb.total_s / sig.reps * 1e3, 3),
                 report::Table::num(tb.total_s, 3),
                 std::string(sim::to_string(tb.serving)),
                 tb.vector_path ? "vector" : "scalar"});
      csv.add_row({sig.name, std::string(core::to_string(sig.group)),
                   std::string(prec), std::to_string(opt.rp.num_threads),
                   report::Table::num(tb.total_s, 6),
                   report::Table::num(tb.compute_s, 6),
                   report::Table::num(tb.memory_s, 6),
                   report::Table::num(tb.sync_s, 6),
                   std::string(sim::to_string(tb.serving)),
                   tb.vector_path ? "1" : "0"});
      auto& [sum, n] = class_time[sig.group];
      sum += tb.total_s;
      ++n;
    }
  }
  std::cout << t.render() << "\n";

  report::Table summary({"class", "kernels x precisions", "est total s"});
  for (const auto& [g, v] : class_time) {
    summary.add_row({std::string(core::to_string(g)),
                     std::to_string(v.second),
                     report::Table::num(v.first, 3)});
  }
  std::cout << summary.render();

  if (opt.csv_path) {
    try {
      csv.write(*opt.csv_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 64;
  }
  for (const auto& dir : opt.machine_dirs) {
    try {
      const auto report = machine::shared_registry().register_ini_dir(dir);
      for (const auto& err : report.errors) {
        std::cerr << "warning: machine pack " << err.file << ": "
                  << err.message << " (quarantined)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 64;
    }
  }
  if (opt.machine) return run_simulated(opt);
  if (opt.trace_path) obs::Tracer::instance().enable();

  const auto registry = kernels::make_registry();
  std::vector<std::string> names;
  if (!opt.kernels.empty()) {
    // Resolve every name before any kernel runs: create() throws
    // std::out_of_range with a did-you-mean hint for an unknown one.
    try {
      for (const auto& name : opt.kernels) (void)registry.create(name);
    } catch (const std::out_of_range& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    names = opt.kernels;
  } else if (opt.group) {
    names = registry.names(*opt.group);
  } else {
    names = registry.names();
  }

  // One executor for the whole run: serial for one thread, the pool
  // otherwise.
  std::unique_ptr<core::Executor> exec;
  if (opt.rp.num_threads <= 1) {
    exec = std::make_unique<core::SerialExecutor>();
  } else {
    exec = std::make_unique<threading::ThreadPool>(opt.rp.num_threads);
  }

  report::Table t(
      {"kernel", "class", "precision", "reps", "ms/rep", "checksum"});
  report::CsvWriter csv({"kernel", "class", "precision", "threads", "reps",
                         "seconds", "checksum"});
  std::map<core::Group, std::pair<double, int>> class_time;

  for (const auto& name : names) {
    for (const auto prec : opt.precisions) {
      core::Group group{};
      core::KernelBase::NativeResult res;
      try {
        const obs::Span span("kernel:" + name);
        auto kernel = registry.create(name);
        group = kernel->group();
        res = kernel->run_native(prec, opt.rp, *exec);
        if (!std::isfinite(static_cast<double>(res.checksum))) {
          throw std::runtime_error("non-finite checksum");
        }
      } catch (const std::exception& e) {
        std::cerr << "error: kernel '" << name << "' ("
                  << core::to_string(prec) << ") failed: " << e.what()
                  << "\n";
        return 2;
      }
      const auto checksum = static_cast<double>(res.checksum);
      t.add_row({name, std::string(core::to_string(group)),
                 std::string(core::to_string(prec)),
                 std::to_string(res.reps),
                 report::Table::num(
                     res.seconds / static_cast<double>(res.reps) * 1e3, 3),
                 report::Table::num(checksum, 4)});
      csv.add_row({name, std::string(core::to_string(group)),
                   std::string(core::to_string(prec)),
                   std::to_string(opt.rp.num_threads),
                   std::to_string(res.reps),
                   report::Table::num(res.seconds, 6),
                   report::Table::num(checksum, 6)});
      auto& [sum, n] = class_time[group];
      sum += res.seconds;
      ++n;
    }
  }
  std::cout << t.render() << "\n";

  report::Table summary({"class", "kernels x precisions", "total s"});
  for (const auto& [g, v] : class_time) {
    summary.add_row({std::string(core::to_string(g)),
                     std::to_string(v.second),
                     report::Table::num(v.first, 3)});
  }
  std::cout << summary.render();

  try {
    if (opt.csv_path) csv.write(*opt.csv_path);
    write_observability(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
