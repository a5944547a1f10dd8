// Microbenchmark + acceptance proof for the sweep engine.
//
// Runs the repo's full figure/table pipeline set — every pipeline
// invocation the pre-engine consumers made in separate processes (the
// fig1-7/tab1-3 binaries, background_d1_vs_v2, paper_deltas, and the
// calibration/experiments regression tests) — in one process:
//
//   uncached pass : the memo cache disabled, so every request runs
//                   Simulator::run (the raw hot path);
//   engine pass   : the same pipelines on a fresh cached engine, then
//                   again on the same engine (reuse, all hits) and on
//                   a forced-serial cached engine.
//
// It asserts the rendered outputs (tables + CSV text) are byte
// identical with the cache on and off, between a parallel and a
// forced-serial engine, and between a first and a reuse run, then
// writes the counters to BENCH_sweep.json. Exits 1 if any outputs
// differ, the forced-serial pass's Simulator::run count is not exactly
// kPinnedSimulations (or the parallel pass exceeds it), or the
// uncached pass's raw simulator throughput
// (EngineCounters::sims_per_second) falls below kMinSimsPerSecond
// (--identity-only skips the throughput gate for instrumented builds).
//
// --persist <dir> instead benchmarks the durable memo cache: a cold
// persistent pass populates <dir>, a warm pass in a fresh engine must
// replay from disk (>= 3x fewer Simulator::run calls, byte-identical
// output), and a third pass under an injected bit-flip read fault must
// quarantine the damaged segment and still reproduce the output.
// Writes BENCH_persist.json; exits 1 if any gate fails.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "bench/bench_common.hpp"
#include "resilience/fault_injector.hpp"

namespace {

using namespace sgp;

/// Simulator::run throughput floor (simulations per aggregate
/// simulation-second, EngineCounters::sims_per_second) gated on the
/// uncached pass, which runs every point and so measures the raw hot
/// path. Per-thread time, so the gate is independent of worker
/// count and machine load. Measured ~1M/s on the 1-core CI box in an
/// uninstrumented build after the placement-table + batched-evaluation
/// work (up from ~140k/s when the floor was 30k); the floor sits ~10x
/// below that so only a real hot-path regression (not timer noise) can
/// trip it. Sanitizer builds pass --identity-only and skip it.
constexpr double kMinSimsPerSecond = 100000.0;

/// Exact Simulator::run count of the forced-serial cached pass: every
/// distinct evaluation point the pipeline set asks for, simulated once.
/// Any change means a pipeline now asks for different points (or the
/// memo cache stopped deduplicating them) and must be re-pinned
/// deliberately. The parallel pass may not exceed it.
constexpr std::uint64_t kPinnedSimulations = 3162;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

std::string render_fig3(const std::vector<experiments::Fig3Row>& rows) {
  std::ostringstream out;
  for (const auto& r : rows) {
    out << r.kernel << ',' << report::Table::num(r.clang_vla, 4) << ','
        << report::Table::num(r.clang_vls, 4) << ',' << r.gcc_vectorizes
        << ',' << r.gcc_runtime_scalar << ',' << r.clang_vectorizes
        << ',' << r.paper_named << '\n';
  }
  return out.str();
}

std::string render_times(const std::map<std::string, double>& times) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto& [name, t] : times) out << name << ',' << t << '\n';
  return out.str();
}

/// One in-process replay of the whole pre-engine consumer surface.
std::string run_pipeline_set(engine::SweepEngine& eng) {
  experiments::reset_best_threads_memo();
  std::ostringstream out;

  auto series = [&](const std::string& title,
                    const std::vector<experiments::RatioSeries>& s) {
    bench::print_series(out, title, s);
    out << bench::series_csv(s).text();
  };
  auto scaling = [&](const std::string& title,
                     const experiments::ScalingTable& t) {
    bench::print_scaling(out, title, t);
    out << bench::scaling_csv(t).text();
  };
  auto x86 = [&](core::Precision prec, bool multi) {
    return experiments::x86_comparison(prec, multi, eng);
  };

  // fig1..fig7, tab1..tab3 binaries.
  series("figure1", experiments::figure1(eng));
  series("figure2", experiments::figure2(eng));
  out << render_fig3(experiments::figure3(eng));
  series("figure4", x86(core::Precision::FP64, false));
  series("figure5", x86(core::Precision::FP32, false));
  series("figure6", x86(core::Precision::FP64, true));
  series("figure7", x86(core::Precision::FP32, true));
  scaling("table1",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("table2",
          experiments::scaling_table(machine::Placement::CyclicNuma, eng));
  scaling("table3", experiments::scaling_table(
                        machine::Placement::ClusterCyclic, eng));

  // background_d1_vs_v2: three whole-suite kernel_times sweeps.
  {
    const auto v2 = machine::visionfive_v2();
    const auto d1 = machine::allwinner_d1();
    auto cfg = [](core::VectorMode mode, core::CompilerId comp) {
      sim::SimConfig c;
      c.precision = core::Precision::FP32;
      c.vector_mode = mode;
      c.compiler = comp;
      c.nthreads = 1;
      return c;
    };
    out << render_times(experiments::kernel_times(
        v2, cfg(core::VectorMode::VLS, core::CompilerId::Gcc), eng));
    out << render_times(experiments::kernel_times(
        d1, cfg(core::VectorMode::Scalar, core::CompilerId::Gcc), eng));
    out << render_times(experiments::kernel_times(
        d1, cfg(core::VectorMode::VLS, core::CompilerId::Clang), eng));
  }

  // paper_deltas: re-derives all three scaling tables.
  scaling("deltas1",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("deltas2",
          experiments::scaling_table(machine::Placement::CyclicNuma, eng));
  scaling("deltas3", experiments::scaling_table(
                         machine::Placement::ClusterCyclic, eng));

  // calibration_regression_test process.
  series("cal_fig1", experiments::figure1(eng));
  scaling("cal_block",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("cal_cluster", experiments::scaling_table(
                             machine::Placement::ClusterCyclic, eng));
  series("cal_fig2", experiments::figure2(eng));
  series("cal_x86", x86(core::Precision::FP64, false));
  out << render_fig3(experiments::figure3(eng));

  // experiments_test process.
  series("exp_fig1", experiments::figure1(eng));
  scaling("exp_t1",
          experiments::scaling_table(machine::Placement::Block, eng));
  scaling("exp_t2",
          experiments::scaling_table(machine::Placement::CyclicNuma, eng));
  scaling("exp_t3", experiments::scaling_table(
                        machine::Placement::ClusterCyclic, eng));
  series("exp_fig2", experiments::figure2(eng));
  out << render_fig3(experiments::figure3(eng));
  series("exp_fig4", x86(core::Precision::FP64, false));
  series("exp_fig5", x86(core::Precision::FP32, false));
  series("exp_fig6", x86(core::Precision::FP64, true));
  series("exp_fig7", x86(core::Precision::FP32, true));
  for (const auto prec : {core::Precision::FP32, core::Precision::FP64}) {
    for (const auto g : core::all_groups) {
      out << "best_threads," << core::to_string(g) << ','
          << experiments::best_sg2042_threads(g, prec, eng) << '\n';
    }
  }

  return out.str();
}

struct PassResult {
  std::string output;
  engine::EngineCounters counters;
  double wall_s = 0.0;
};

PassResult run_pass(engine::SweepEngine& eng) {
  const auto t0 = std::chrono::steady_clock::now();
  PassResult r;
  r.output = run_pipeline_set(eng);
  r.wall_s = seconds_since(t0);
  r.counters = eng.counters();
  return r;
}

[[noreturn]] void usage_error(const char* prog, const std::string& what) {
  std::cerr << prog << ": " << what << "\n"
            << "usage: " << prog << " [--json <path>] [--jobs <n>]"
            << " [--perf] [--persist <dir>] [--identity-only]\n";
  std::exit(64);
}

/// --persist mode: cold-vs-warm throughput for the durable memo cache,
/// plus recovery under a corrupted segment. The warm gate (>= 3x fewer
/// Simulator::run calls) is deliberately far below the observed ~all-
/// hits replay so timing noise cannot flake the bench-smoke lane.
int run_persist_bench(const std::string& dir, const std::string& json_path,
                      int jobs) {
  namespace fs = std::filesystem;
  using engine::EngineOptions;
  std::cout << "== micro_sweep_engine --persist: durable memo cache, "
               "cold vs warm ==\n";
  fs::remove_all(dir);

  engine::EnginePersistence persistence;
  persistence.store.dir = dir;
  persistence.note = "micro_sweep_engine --persist";

  auto persistent_pass =
      [&](resilience::FaultInjector* injector) -> PassResult {
    engine::EnginePersistence p = persistence;
    p.store.injector = injector;
    engine::SweepEngine eng(EngineOptions{jobs, true, p});
    return run_pass(eng);
  };  // engine destructor flushes the final segment

  const auto cold = persistent_pass(nullptr);
  const auto warm = persistent_pass(nullptr);

  // Recovery pass: one bit of the first segment read is flipped; the
  // loader must quarantine that segment, replay the rest, and recompute
  // only the lost points.
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.read:bitflip:1");
  resilience::FaultInjector injector(plan, 99u);
  const auto faulted = persistent_pass(&injector);

  const std::uint64_t cold_sims = cold.counters.simulations;
  const std::uint64_t warm_sims = warm.counters.simulations;
  const bool warm_identical = warm.output == cold.output;
  const bool faulted_identical = faulted.output == cold.output;
  const std::uint64_t quarantined =
      faulted.counters.persist.store.quarantined_segments;
  const double speedup =
      warm.wall_s > 0.0 ? cold.wall_s / warm.wall_s : 0.0;
  const double sim_ratio =
      double(cold_sims) / double(std::max<std::uint64_t>(warm_sims, 1));
  const bool pass = warm_identical && faulted_identical &&
                    sim_ratio >= 3.0 && quarantined >= 1;

  report::Table t({"pass", "Simulator::run", "resumed points",
                   "quarantined", "wall s"});
  auto row = [&](const char* name, const PassResult& p) {
    t.add_row({name, std::to_string(p.counters.simulations),
               std::to_string(p.counters.persist.cache.resumed_points),
               std::to_string(p.counters.persist.store.quarantined_segments),
               report::Table::num(p.wall_s, 3)});
  };
  row("cold (empty store)", cold);
  row("warm (resume)", warm);
  row("warm (bit-flip fault)", faulted);
  std::cout << t.render();
  std::cout << "Simulator::run cold/warm: "
            << report::Table::num(sim_ratio, 2) << "x (need >= 3)\n"
            << "outputs identical — warm: " << (warm_identical ? "yes" : "NO")
            << ", faulted: " << (faulted_identical ? "yes" : "NO")
            << "; quarantined segments: " << quarantined << " (need >= 1)\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n"
         << "  \"bench\": \"micro_sweep_engine_persist\",\n"
         << "  \"store_dir\": \"" << dir << "\",\n"
         << "  \"cold\": {\"simulations\": " << cold_sims
         << ", \"flushes\": " << cold.counters.persist.store.flushes
         << ", \"entries_flushed\": "
         << cold.counters.persist.store.entries_flushed
         << ", \"wall_s\": " << cold.wall_s << "},\n"
         << "  \"warm\": {\"simulations\": " << warm_sims
         << ", \"entries_loaded\": "
         << warm.counters.persist.store.entries_loaded
         << ", \"resumed_points\": "
         << warm.counters.persist.cache.resumed_points
         << ", \"wall_s\": " << warm.wall_s << "},\n"
         << "  \"faulted\": {\"simulations\": "
         << faulted.counters.simulations << ", \"quarantined_segments\": "
         << quarantined << ", \"corrupt_entries\": "
         << faulted.counters.persist.store.corrupt_entries
         << ", \"wall_s\": " << faulted.wall_s << "},\n"
         << "  \"cold_warm_sim_ratio\": " << sim_ratio << ",\n"
         << "  \"cold_warm_speedup\": " << speedup << ",\n"
         << "  \"outputs_identical\": {\"warm\": " << warm_identical
         << ", \"faulted\": " << faulted_identical << "},\n"
         << "  \"pass\": " << pass << "\n"
         << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string persist_dir;
  int jobs = 0;
  bool perf = false;
  // Skips the wall-clock throughput gate (sims/second); identity and
  // simulation-count gates still apply. For sanitizer builds, whose
  // instrumentation slows the simulator by an order of magnitude.
  bool identity_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--persist") {
      persist_dir = value();
    } else if (arg == "--jobs") {
      const std::string v = value();
      try {
        std::size_t used = 0;
        jobs = std::stoi(v, &used);
        if (used != v.size() || jobs < 0) throw std::invalid_argument(v);
      } catch (const std::exception&) {
        usage_error(argv[0], "bad value '" + v + "' for --jobs");
      }
    } else if (arg == "--perf") {
      perf = true;
    } else if (arg == "--identity-only") {
      identity_only = true;
    } else {
      usage_error(argv[0], "unknown flag '" + arg + "'");
    }
  }

  if (!persist_dir.empty()) {
    return run_persist_bench(
        persist_dir, json_path.empty() ? "BENCH_persist.json" : json_path,
        jobs);
  }
  if (json_path.empty()) json_path = "BENCH_sweep.json";

  std::cout << "== micro_sweep_engine: full figure/table pipeline set, "
               "uncached vs cached engine ==\n";

  // Uncached pass: every request runs Simulator::run, which is what the
  // consumer surface costs when every consumer is its own process (no
  // sharing is possible without the cache, so running them back to
  // back in one process is equivalent).
  engine::SweepEngine uncached_eng({jobs, /*use_cache=*/false});
  const auto uncached = run_pass(uncached_eng);

  // Engine pass: the same pipelines on one fresh cached engine.
  engine::SweepEngine eng({jobs, /*use_cache=*/true});
  const auto first = run_pass(eng);

  // Reuse pass: same engine again — everything should be served from
  // the cache (a second bench binary in the same process).
  const auto reuse = run_pass(eng);
  const auto reuse_sims =
      reuse.counters.simulations - first.counters.simulations;

  // Forced-serial pass: determinism check for the parallel scheduler.
  engine::SweepEngine serial_eng({/*jobs=*/1, /*use_cache=*/true});
  const auto serial = run_pass(serial_eng);

  const bool cache_identical = uncached.output == first.output;
  const bool serial_identical = serial.output == first.output;
  const bool reuse_identical = reuse.output == first.output;
  const bool sims_pinned =
      serial.counters.simulations == kPinnedSimulations &&
      first.counters.simulations <= kPinnedSimulations;
  // Throughput gate on the uncached pass: simulations per second of
  // wall time spent inside Simulator::run, summed across workers.
  const double sims_per_second = uncached.counters.sims_per_second();
  const bool sims_ok =
      identity_only || sims_per_second >= kMinSimsPerSecond;
  const bool pass = cache_identical && serial_identical &&
                    reuse_identical && reuse_sims == 0 && sims_pinned &&
                    sims_ok;

  report::Table t({"pass", "Simulator::run", "requests", "cache hits",
                   "wall s"});
  auto row = [&](const char* name, const PassResult& p,
                 std::uint64_t sims_override, std::uint64_t hits) {
    t.add_row({name, std::to_string(sims_override),
               std::to_string(p.counters.requests),
               std::to_string(hits),
               report::Table::num(p.wall_s, 3)});
  };
  row("uncached", uncached, uncached.counters.simulations,
      uncached.counters.cache_hits);
  row("engine (first)", first, first.counters.simulations,
      first.counters.cache_hits);
  row("engine (reuse)", reuse, reuse_sims,
      reuse.counters.cache_hits - first.counters.cache_hits);
  row("engine (serial)", serial, serial.counters.simulations,
      serial.counters.cache_hits);
  std::cout << t.render();
  std::cout << "Simulator::run (serial cached pass): "
            << serial.counters.simulations << " (pinned at "
            << kPinnedSimulations << "; parallel pass must not exceed it)\n";
  std::cout << "simulator throughput (uncached pass): "
            << report::Table::num(sims_per_second, 0) << " sims/s";
  if (identity_only) {
    std::cout << " (gate skipped: --identity-only)\n";
  } else {
    std::cout << " (need >= " << report::Table::num(kMinSimsPerSecond, 0)
              << ")\n";
  }
  std::cout << "outputs identical — cache on/off: "
            << (cache_identical ? "yes" : "NO")
            << ", serial: " << (serial_identical ? "yes" : "NO")
            << ", reuse: " << (reuse_identical ? "yes" : "NO") << "\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n"
         << "  \"bench\": \"micro_sweep_engine\",\n"
         << "  \"jobs\": " << eng.jobs() << ",\n"
         << "  \"uncached\": {\"simulations\": "
         << uncached.counters.simulations
         << ", \"requests\": " << uncached.counters.requests
         << ", \"wall_s\": " << uncached.wall_s << "},\n"
         << "  \"engine\": {\"simulations\": "
         << first.counters.simulations
         << ", \"requests\": " << first.counters.requests
         << ", \"cache_hits\": " << first.counters.cache_hits
         << ", \"cache_entries\": " << first.counters.cache_entries
         << ", \"wall_s\": " << first.wall_s << "},\n"
         << "  \"reuse\": {\"new_simulations\": " << reuse_sims
         << ", \"wall_s\": " << reuse.wall_s << "},\n"
         << "  \"serial\": {\"simulations\": "
         << serial.counters.simulations
         << ", \"wall_s\": " << serial.wall_s << "},\n"
         << "  \"pinned_simulations\": " << kPinnedSimulations << ",\n"
         << "  \"sims_per_second\": " << sims_per_second << ",\n"
         << "  \"sims_per_second_min\": " << kMinSimsPerSecond << ",\n"
         << "  \"sims_gate_skipped\": " << identity_only << ",\n"
         << "  \"outputs_identical\": {\"cache_vs_nocache\": "
         << cache_identical << ", \"parallel_vs_serial\": "
         << serial_identical << ", \"first_vs_reuse\": " << reuse_identical
         << "},\n"
         << "  \"pass\": " << pass << "\n"
         << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  if (perf) bench::print_perf(std::cout, first.counters);
  return pass ? 0 : 1;
}
