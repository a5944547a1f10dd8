// Cross-model validation oracle (`ctest -L check` runs this):
//   1. replays the invariant checker over every paper machine, all 64
//      kernel signatures and a standard config grid;
//   2. optionally fuzzes the same invariants over random machines;
//   3. asserts the streaming cachesim replay engine and the reference
//      vector path (the two replay paths) produce bit-identical
//      statistics on every paper machine plus random fuzzed ones;
//   4. re-executes every figure/table pipeline through the sweep engine
//      twice — memo cache on and off — and requires byte-identical CSV
//      artifacts;
//   5. diffs the cached artifacts against the pinned goldens under
//      tests/golden/ with per-column tolerances, reporting the first
//      divergent cell.
//
// --jobs shards the invariant grid and the fuzzers over a thread pool;
// reports are merged in deterministic order, so serial and parallel
// runs stay byte-identical.
//
//   6. fuzzes the durable-segment parser (truncated, bit-flipped,
//      version-bumped, magic-corrupted, garbage-tailed files): the
//      loader must never crash, never deliver data from a bad segment,
//      and quarantine deterministically;
//   7. with --persist, replays the pipeline artifacts through a
//      persistent engine and a second cold engine resuming from the
//      same store (optionally under --inject-io faults) and requires
//      byte-identical CSVs with zero re-simulations on the clean path.
//
// Machines come from machine::shared_registry(): --machine-dir loads
// INI packs next to the built-ins, --machine restricts the
// invariant/cachesim stages to named machines (default: the paper's
// seven), and --lint-machines <dir> is a standalone mode validating
// every pack in a directory (parse + validate() + the roofline
// invariants with the scalar floor off) — the machine-pack CI gate.
//
//   8. fuzzes the batched evaluation paths: ragged random batches on
//      random machines must be bit-identical across per-point
//      Simulator::run, one Simulator::run_batch per kernel, and the
//      engine's memo-miss and memo-hit batch paths.
//
//   ./check_cli [--golden <dir>] [--write-golden <dir>] [--fuzz <n>]
//               [--fuzz-cachesim <n>] [--fuzz-segments <n>]
//               [--fuzz-requests <n>] [--fuzz-ini <n>]
//               [--fuzz-batch <n>]
//               [--machine <name>] [--machine-dir <dir>]
//               [--lint-machines <dir>]
//               [--persist <dir>] [--inject-io <plan>] [--jobs <n>]
//               [--skip-invariants]
//
// Exit codes: 0 = all checks pass, 1 = violations or divergences,
// 64 = usage error (matching the suite/bench CLI conventions).
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifacts.hpp"
#include "check/fuzz.hpp"
#include "check/golden.hpp"
#include "check/invariants.hpp"
#include "engine/engine.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "machine/registry.hpp"
#include "machine/serialize.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_injector.hpp"

namespace {

struct Options {
  std::optional<std::string> golden_dir;
  std::optional<std::string> write_golden_dir;
  unsigned fuzz_seeds = 0;
  unsigned fuzz_cachesim_seeds = 4;
  unsigned fuzz_segment_seeds = 4;
  unsigned fuzz_request_seeds = 16;
  unsigned fuzz_ini_seeds = 16;
  unsigned fuzz_batch_seeds = 8;
  std::vector<std::string> machines;      ///< invariant/cachesim set
  std::vector<std::string> machine_dirs;  ///< INI packs to register
  std::optional<std::string> lint_dir;    ///< standalone pack linter
  std::optional<std::string> persist_dir;
  std::optional<sgp::resilience::FaultPlan> io_fault_plan;
  int jobs = 0;  ///< check/fuzz workers; 0 = one per hw thread
  bool skip_invariants = false;
};

[[noreturn]] void usage_error(const char* argv0, const std::string& what) {
  std::cerr << argv0 << ": " << what << "\n"
            << "usage: " << argv0
            << " [--golden <dir>] [--write-golden <dir>] [--fuzz <n>]"
               " [--fuzz-cachesim <n>] [--fuzz-segments <n>]"
               " [--fuzz-requests <n>] [--fuzz-ini <n>]"
               " [--fuzz-batch <n>]"
               " [--machine <name>] [--machine-dir <dir>]"
               " [--lint-machines <dir>]"
               " [--persist <dir>] [--inject-io <plan>] [--jobs <n>]"
               " [--skip-invariants]\n";
  std::exit(64);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    // A count flag's value: a plain decimal integer (obs::parse_u64)
    // no larger than its target type can hold, so it never wraps.
    auto count = [&](std::uint64_t max) -> std::uint64_t {
      const std::string v = value();
      const auto n = sgp::obs::parse_u64(v);
      if (!n || *n > max) {
        usage_error(argv[0], "bad value '" + v + "' for " + arg);
      }
      return *n;
    };
    auto seeds = [&] {
      return static_cast<unsigned>(
          count(std::numeric_limits<unsigned>::max()));
    };
    if (arg == "--golden") {
      opt.golden_dir = value();
    } else if (arg == "--write-golden") {
      opt.write_golden_dir = value();
    } else if (arg == "--fuzz") {
      opt.fuzz_seeds = seeds();
    } else if (arg == "--fuzz-cachesim") {
      opt.fuzz_cachesim_seeds = seeds();
    } else if (arg == "--fuzz-segments") {
      opt.fuzz_segment_seeds = seeds();
    } else if (arg == "--fuzz-requests") {
      opt.fuzz_request_seeds = seeds();
    } else if (arg == "--fuzz-ini") {
      opt.fuzz_ini_seeds = seeds();
    } else if (arg == "--fuzz-batch") {
      opt.fuzz_batch_seeds = seeds();
    } else if (arg == "--machine") {
      opt.machines.push_back(value());
    } else if (arg == "--machine-dir") {
      opt.machine_dirs.push_back(value());
    } else if (arg == "--lint-machines") {
      opt.lint_dir = value();
    } else if (arg == "--persist") {
      opt.persist_dir = value();
    } else if (arg == "--inject-io") {
      try {
        opt.io_fault_plan = sgp::resilience::FaultPlan::parse(value());
      } catch (const std::exception& e) {
        usage_error(argv[0], e.what());
      }
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<int>(count(std::numeric_limits<int>::max()));
    } else if (arg == "--skip-invariants") {
      opt.skip_invariants = true;
    } else {
      usage_error(argv[0], "unknown flag '" + arg + "'");
    }
  }
  return opt;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void print_violations(const sgp::check::CheckReport& report,
                      std::size_t limit = 10) {
  for (std::size_t i = 0; i < report.violations.size() && i < limit; ++i) {
    std::cout << "  VIOLATION: " << to_string(report.violations[i]) << "\n";
  }
  if (report.violations.size() > limit) {
    std::cout << "  ... and " << report.violations.size() - limit
              << " more\n";
  }
}

/// The registry names of the paper's seven machines (the default
/// invariant/cachesim set; the D1 background machine stays opt-in via
/// --machine, as it always has).
std::vector<std::string> default_check_machines() {
  return {"sg2042", "visionfive-v1", "visionfive-v2", "rome",
          "broadwell", "icelake", "sandybridge"};
}

/// Standalone pack linter: parse + validate() + the roofline
/// invariants over the fuzz kernel set with the scalar floor off (a
/// pack need not be calibrated like the paper machines). Exit 0 when
/// every pack passes, 1 on any failure, 64 on a bad directory.
int lint_machines(const std::string& dir, int jobs) {
  namespace fs = std::filesystem;
  using namespace sgp;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::cerr << "check_cli: --lint-machines: not a directory: " << dir
              << "\n";
    return 64;
  }
  std::vector<fs::path> packs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".ini") {
      packs.push_back(entry.path());
    }
  }
  std::sort(packs.begin(), packs.end());
  if (packs.empty()) {
    std::cerr << "check_cli: --lint-machines: no *.ini packs in " << dir
              << "\n";
    return 64;
  }

  const check::FuzzOptions fuzz_opt;
  std::vector<core::KernelSignature> sigs;
  for (const auto& sig : kernels::all_signatures()) {
    if (std::find(fuzz_opt.kernels.begin(), fuzz_opt.kernels.end(),
                  sig.name) != fuzz_opt.kernels.end()) {
      sigs.push_back(sig);
    }
  }

  bool failed = false;
  for (const auto& path : packs) {
    try {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw std::invalid_argument("cannot open file");
      std::ostringstream text;
      text << in.rdbuf();
      const auto m = machine::from_ini(text.str());
      const auto report = check::check_machine(m, sigs, fuzz_opt.check, jobs);
      if (!report.ok()) {
        failed = true;
        std::cout << "lint " << path.string() << ": FAIL ("
                  << report.violations.size() << " violations)\n";
        print_violations(report);
      } else {
        std::cout << "lint " << path.string() << ": ok (" << m.name << ", "
                  << report.points << " points)\n";
      }
    } catch (const std::exception& e) {
      failed = true;
      std::cout << "lint " << path.string() << ": FAIL " << e.what() << "\n";
    }
  }
  std::cout << (failed ? "FAIL" : "OK") << "\n";
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sgp;
  const Options opt = parse_args(argc, argv);
  bool failed = false;

  // Machine packs register before anything resolves names; a corrupt
  // pack is quarantined with a warning, a bad directory is fatal.
  for (const auto& dir : opt.machine_dirs) {
    try {
      const auto report = machine::shared_registry().register_ini_dir(dir);
      for (const auto& err : report.errors) {
        std::cerr << "warning: machine pack " << err.file << ": "
                  << err.message << " (quarantined)\n";
      }
    } catch (const std::exception& e) {
      usage_error(argv[0], e.what());
    }
  }

  if (opt.lint_dir) return lint_machines(*opt.lint_dir, opt.jobs);

  // The machines the invariant and cachesim stages run over, resolved
  // through the registry (so --machine accepts INI-loaded packs too).
  std::vector<const machine::MachineDescriptor*> check_machines;
  for (const auto& name :
       opt.machines.empty() ? default_check_machines() : opt.machines) {
    try {
      check_machines.push_back(&machine::shared_registry().descriptor(name));
    } catch (const std::out_of_range& e) {
      usage_error(argv[0], e.what());
    }
  }

  // Regeneration mode: render every pipeline on a private engine and
  // pin the result. No checks run.
  if (opt.write_golden_dir) {
    std::error_code ec;
    if (!std::filesystem::is_directory(*opt.write_golden_dir, ec)) {
      std::cerr << "check_cli: --write-golden: not a directory: "
                << *opt.write_golden_dir << "\n";
      return 64;
    }
    engine::SweepEngine eng;
    try {
      for (const auto& a : check::run_all_artifacts(eng)) {
        const std::string path =
            *opt.write_golden_dir + "/" + a.name + ".csv";
        a.csv.write(path);
        std::cout << "wrote " << path << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "check_cli: --write-golden: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  // 1. Invariants over the registry-resolved machine set.
  if (!opt.skip_invariants) {
    const auto sigs = kernels::all_signatures();
    for (const auto* m : check_machines) {
      const auto report = check::check_machine(*m, sigs, {}, opt.jobs);
      std::cout << "invariants " << m->name << ": " << report.points
                << " points, " << report.violations.size()
                << " violations\n";
      if (!report.ok()) {
        failed = true;
        print_violations(report);
      }
    }
  }

  // 2. Fuzzing over random machines (scalar floor off; see check/fuzz).
  if (opt.fuzz_seeds > 0) {
    const auto report =
        check::fuzz_invariants(1000, opt.fuzz_seeds, {}, opt.jobs);
    std::cout << "fuzz over " << opt.fuzz_seeds << " random machines: "
              << report.points << " points, " << report.violations.size()
              << " violations\n";
    if (!report.ok()) {
      failed = true;
      print_violations(report);
    }
  }

  // 3. Cachesim replay agreement: streaming engine vs the reference
  // vector path must be bit-identical on the paper machines and on
  // random fuzzed descriptors.
  {
    check::CheckReport report;
    for (const auto* m : check_machines) {
      report.merge(check::cachesim_agreement(*m));
    }
    if (opt.fuzz_cachesim_seeds > 0) {
      report.merge(check::fuzz_cachesim(2000, opt.fuzz_cachesim_seeds,
                                        opt.jobs));
    }
    std::cout << "cachesim agreement (+" << opt.fuzz_cachesim_seeds
              << " random machines): " << report.points << " points, "
              << report.violations.size() << " violations\n";
    if (!report.ok()) {
      failed = true;
      print_violations(report);
    }
  }

  // 4 + 5. Pipelines: cached vs uncached byte-identity, then the golden
  // differential. Two private engines so the comparison cannot share a
  // memo cache with anything else in the process.
  {
    engine::SweepEngine cached;
    engine::SweepEngine uncached(engine::EngineOptions{.use_cache = false});
    const auto cached_artifacts = check::run_all_artifacts(cached);
    const auto uncached_artifacts = check::run_all_artifacts(uncached);

    for (std::size_t i = 0; i < cached_artifacts.size(); ++i) {
      const auto& c = cached_artifacts[i];
      const auto& u = uncached_artifacts[i];
      if (c.csv.text() != u.csv.text()) {
        failed = true;
        const auto diff = check::diff_csv(c.csv.text(), u.csv.text());
        std::cout << "DIVERGENCE " << c.name
                  << ": cached and uncached engine outputs differ";
        if (diff) std::cout << " — " << to_string(*diff);
        std::cout << "\n";
      }
    }
    std::cout << "cached/uncached identity: " << cached_artifacts.size()
              << " artifacts compared\n";

    if (opt.golden_dir) {
      for (const auto& a : cached_artifacts) {
        const std::string path = *opt.golden_dir + "/" + a.name + ".csv";
        const auto golden = read_file(path);
        if (!golden) {
          failed = true;
          std::cout << "DIVERGENCE " << a.name << ": missing golden "
                    << path << "\n";
          continue;
        }
        if (const auto diff =
                check::diff_csv(*golden, a.csv.text(), a.policy)) {
          failed = true;
          std::cout << "DIVERGENCE " << a.name << " vs " << path << ": "
                    << to_string(*diff) << "\n";
        }
      }
      std::cout << "golden diff: " << cached_artifacts.size()
                << " artifacts checked against " << *opt.golden_dir
                << "\n";
    }
  }

  // 6. Durable-segment parser robustness fuzzing.
  if (opt.fuzz_segment_seeds > 0) {
    const std::string dir =
        opt.persist_dir ? *opt.persist_dir + "/fuzz" : "check_segment_fuzz";
    const auto report =
        check::fuzz_segments(3000, opt.fuzz_segment_seeds, dir, opt.jobs);
    std::cout << "segment fuzz over " << opt.fuzz_segment_seeds
              << " seeds: " << report.points << " points, "
              << report.violations.size() << " violations\n";
    if (!report.ok()) {
      failed = true;
      print_violations(report);
    }
    if (!opt.persist_dir) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  // 7. sgp-serve request parser robustness fuzzing.
  if (opt.fuzz_request_seeds > 0) {
    const auto report =
        check::fuzz_requests(4000, opt.fuzz_request_seeds, opt.jobs);
    std::cout << "request fuzz over " << opt.fuzz_request_seeds
              << " seeds: " << report.points << " points, "
              << report.violations.size() << " violations\n";
    if (!report.ok()) {
      failed = true;
      print_violations(report);
    }
  }

  // 7b. Machine INI serializer/parser + registry round-trip fuzzing.
  if (opt.fuzz_ini_seeds > 0) {
    const auto report =
        check::fuzz_ini_roundtrip(5000, opt.fuzz_ini_seeds, opt.jobs);
    std::cout << "machine-ini fuzz over " << opt.fuzz_ini_seeds
              << " seeds: " << report.points << " points, "
              << report.violations.size() << " violations\n";
    if (!report.ok()) {
      failed = true;
      print_violations(report);
    }
  }

  // 7c. Batched-path identity fuzzing: scalar run vs run_batch vs the
  // engine's batched memo path, bit-for-bit.
  if (opt.fuzz_batch_seeds > 0) {
    const auto report =
        check::fuzz_batch_identity(6000, opt.fuzz_batch_seeds, opt.jobs);
    std::cout << "batch-identity fuzz over " << opt.fuzz_batch_seeds
              << " seeds: " << report.points << " points, "
              << report.violations.size() << " violations\n";
    if (!report.ok()) {
      failed = true;
      print_violations(report);
    }
  }

  // 8. Checkpoint/resume identity: a persistent engine renders every
  // pipeline and flushes its memo cache; a second cold engine resumes
  // from the same store (under --inject-io faults if given) and must
  // reproduce the CSVs byte-for-byte. Without injected faults the
  // resumed run must not re-simulate anything.
  if (opt.persist_dir) {
    const std::string store_dir = *opt.persist_dir + "/store";
    std::filesystem::remove_all(store_dir);
    std::optional<resilience::FaultInjector> io_injector;
    if (opt.io_fault_plan) io_injector.emplace(*opt.io_fault_plan, 77u);

    engine::EnginePersistence persistence;
    persistence.store.dir = store_dir;
    persistence.store.injector = io_injector ? &*io_injector : nullptr;

    engine::EngineOptions warm_opt{1, true, persistence};
    std::vector<check::Artifact> cold_artifacts, warm_artifacts;
    std::uint64_t warm_sims = 0, resumed = 0;
    {
      engine::SweepEngine cold(warm_opt);
      cold_artifacts = check::run_all_artifacts(cold);
    }  // destructor flushes the final segment
    {
      engine::SweepEngine resume(warm_opt);
      warm_artifacts = check::run_all_artifacts(resume);
      const auto c = resume.counters();
      warm_sims = c.simulations;
      resumed = c.persist.cache.resumed_points;
    }

    std::size_t divergences = 0;
    for (std::size_t i = 0; i < cold_artifacts.size(); ++i) {
      if (cold_artifacts[i].csv.text() != warm_artifacts[i].csv.text()) {
        ++divergences;
        failed = true;
        std::cout << "DIVERGENCE " << cold_artifacts[i].name
                  << ": resumed engine output differs from cold run\n";
      }
    }
    // Injected faults may legitimately force re-simulation (a torn
    // segment is quarantined and its points recomputed); without them
    // a resumed run must be pure replay.
    if (!opt.io_fault_plan && warm_sims != 0) {
      failed = true;
      std::cout << "DIVERGENCE persist-resume: " << warm_sims
                << " re-simulations on a clean resume (expected 0)\n";
    }
    std::cout << "persist resume: " << cold_artifacts.size()
              << " artifacts compared, " << divergences << " divergences, "
              << resumed << " points resumed, " << warm_sims
              << " re-simulations\n";
  }

  // Per-check metrics summary from the obs registry.
  {
    const auto snap = obs::registry().snapshot();
    std::uint64_t points = 0, violations = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("check.", 0) != 0) continue;
      if (name.size() > 7 && name.compare(name.size() - 7, 7, ".points") == 0) {
        points += value;
      } else {
        violations += value;
      }
    }
    std::cout << "check metrics: " << points << " points, " << violations
              << " violations recorded\n";
  }

  std::cout << (failed ? "FAIL" : "OK") << "\n";
  return failed ? 1 : 0;
}
