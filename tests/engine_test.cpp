// Sweep-engine contract tests: the engine is a pure scheduling layer
// that memoizes nothing, so (1) a large batch, and a mixed batch
// scattered back into point order, are bit-identical to scalar
// Simulator::run, (2) the counters account for every request, and
// every request is priced, (3) a throwing point fails the batch without
// poisoning the engine, (4) the multi-threaded x86 baseline is read
// from the best-thread search's grid, (5) a regeneration is pinned to
// an exact point count and the whole pipeline set renders identically
// when repeated on one engine, and (6) the persist options the
// benchmark harness still sets change nothing and write nothing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifacts.hpp"
#include "engine/engine.hpp"
#include "experiments/experiments.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "obs/trace.hpp"

namespace sgp::engine {
namespace {

void expect_same_breakdown(const sim::TimeBreakdown& a,
                           const sim::TimeBreakdown& b) {
  EXPECT_EQ(a.compute_s, b.compute_s);
  EXPECT_EQ(a.memory_s, b.memory_s);
  EXPECT_EQ(a.sync_s, b.sync_s);
  EXPECT_EQ(a.atomic_s, b.atomic_s);
  EXPECT_EQ(a.total_s, b.total_s);
  EXPECT_EQ(a.serving, b.serving);
  EXPECT_EQ(a.vector_path, b.vector_path);
  EXPECT_EQ(a.note, b.note);
  EXPECT_EQ(a.note_compiler, b.note_compiler);
  EXPECT_EQ(a.note_mode, b.note_mode);
  EXPECT_EQ(a.note_rollback, b.note_rollback);
}

/// Prices one point as a one-point batch.
sim::TimeBreakdown run_one(SweepEngine& eng, const SweepPoint& p) {
  return eng.run_batch({&p, 1}).front();
}

sim::SimConfig fp32_threads(int n) {
  sim::SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  cfg.nthreads = n;
  cfg.placement = machine::Placement::ClusterCyclic;
  return cfg;
}

TEST(SweepEngine, LargeGroupIsBitIdenticalToScalarRun) {
  SweepEngine eng;
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  // 64 thread counts x 3 placements x 2 precisions: one (machine,
  // signature) group of 384 misses, priced by one Simulator::run_batch.
  std::vector<sim::SimConfig> cfgs;
  for (const auto prec : {core::Precision::FP32, core::Precision::FP64}) {
    for (const auto place :
         {machine::Placement::Block, machine::Placement::CyclicNuma,
          machine::Placement::ClusterCyclic}) {
      for (int t = 1; t <= 64; ++t) {
        sim::SimConfig cfg;
        cfg.precision = prec;
        cfg.placement = place;
        cfg.nthreads = t;
        cfgs.push_back(cfg);
      }
    }
  }
  ASSERT_GE(cfgs.size(), 384u);

  const auto got = eng.run_grid(m, {&sig, 1}, cfgs);
  ASSERT_EQ(got.size(), cfgs.size());
  EXPECT_EQ(eng.counters().simulations, cfgs.size());
  const sim::Simulator scalar(m);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    expect_same_breakdown(got[i], scalar.run(sig, cfgs[i]));
  }
}

TEST(SweepEngine, MixedBatchScattersBackIntoPointOrder) {
  // Two machines, interleaved signatures and a repeated point: every
  // result lands at its own position, and the repeat is priced again.
  SweepEngine eng;
  const auto sg = machine::sg2042();
  const auto rome = machine::amd_rome();
  const auto& sigs = kernels::all_signatures();
  std::vector<SweepPoint> points;
  for (int t : {1, 4, 16}) {
    for (std::size_t s = 0; s < 6; ++s) {
      const auto& m = (s + static_cast<std::size_t>(t)) % 2 ? sg : rome;
      points.push_back({&m, &sigs[(5 * s) % sigs.size()], fp32_threads(t)});
    }
  }
  points.push_back(points.front());
  const auto got = eng.run_batch(points);
  ASSERT_EQ(got.size(), points.size());
  const sim::Simulator scalar_sg(sg), scalar_rome(rome);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& scalar = points[i].machine == &sg ? scalar_sg : scalar_rome;
    expect_same_breakdown(got[i],
                          scalar.run(*points[i].signature, points[i].config));
  }
  const auto c = eng.counters();
  EXPECT_EQ(c.requests, points.size());
  EXPECT_EQ(c.simulations, points.size());
  EXPECT_EQ(c.simulators_built, 2u);
  EXPECT_EQ(c.batches, 1u);
}

TEST(SweepEngine, ThrowingPointFailsTheBatchButNotTheEngine) {
  const auto m = machine::sg2042();
  auto sigs = kernels::all_signatures();
  auto bad = sigs.front();
  bad.iters_per_rep = 0.0;  // Simulator::run rejects this

  // A small batch (64 good points) and a large one (1,024): the bad
  // signature's group comes last either way.
  for (const int nthreads : {1, 16}) {
    SweepEngine eng;
    std::vector<SweepPoint> points;
    for (int t = 1; t <= nthreads; ++t) {
      for (const auto& s : sigs) points.push_back({&m, &s, fp32_threads(t)});
    }
    points.push_back({&m, &bad, fp32_threads(1)});

    EXPECT_THROW((void)eng.run_batch(points), std::invalid_argument)
        << nthreads;

    // The engine stays usable.
    const auto ok = run_one(eng, {&m, &sigs.front(), fp32_threads(1)});
    EXPECT_GT(ok.total_s, 0.0);
  }
}

TEST(SweepEngine, MutatedCopyOfATableSignatureIsPricedSeparately) {
  // Same name, one field changed: the copy must group apart from the
  // table entry it was made from, batch after batch.
  SweepEngine eng;
  const auto m = machine::sg2042();
  const auto& entry = kernels::all_signatures()[3];
  auto copy = entry;
  copy.iters_per_rep *= 2.0;
  const std::vector<SweepPoint> points{{&m, &entry, fp32_threads(1)},
                                       {&m, &copy, fp32_threads(1)},
                                       {&m, &entry, fp32_threads(8)},
                                       {&m, &copy, fp32_threads(8)}};
  const sim::Simulator scalar(m);
  for (int round = 0; round < 2; ++round) {
    const auto got = eng.run_batch(points);
    ASSERT_EQ(got.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_same_breakdown(got[i],
                            scalar.run(*points[i].signature, points[i].config));
    }
    EXPECT_NE(got[0].total_s, got[1].total_s);
  }
  EXPECT_EQ(eng.counters().simulations, 8u);
}

TEST(SweepEngine, X86MultiThreadedBaselineIsReadFromTheBestThreadsGrid) {
  // Figures 6 and 7 price the SG2042's {32, 64}-thread grid once, for
  // the best-thread search and the baseline both, then each x86 part.
  SweepEngine eng;
  const auto prec = core::Precision::FP32;
  const auto got = experiments::x86_comparison(prec, true, eng);
  const auto& sigs = kernels::all_signatures();
  EXPECT_EQ(eng.counters().simulations,
            (2 + machine::x86_machines().size()) * sigs.size());

  const auto& sg = experiments::pipeline_machine();
  const sim::Simulator sg_scalar(sg);
  std::vector<double> baseline;
  for (const auto& sig : sigs) {
    sim::SimConfig c = fp32_threads(
        experiments::best_sg2042_threads(sig.group, prec, eng));
    baseline.push_back(sg_scalar.run(sig, c).total_s);
  }
  ASSERT_EQ(got.size(), machine::x86_machines().size());
  for (std::size_t x = 0; x < got.size(); ++x) {
    const auto& x86 = machine::x86_machines()[x];
    const sim::Simulator scalar(x86);
    sim::SimConfig c = fp32_threads(x86.num_cores);
    c.placement = machine::Placement::Block;
    ASSERT_EQ(got[x].per_kernel_ratio.size(), sigs.size()) << x86.name;
    for (std::size_t s = 0; s < sigs.size(); ++s) {
      EXPECT_EQ(got[x].per_kernel_ratio[s],
                baseline[s] / scalar.run(sigs[s], c).total_s)
          << x86.name << ' ' << sigs[s].name;
    }
  }
}

/// perfbench's experiments layer is the self time of the `phase:<name>`
/// spans the pipelines open; pin those names and that each one directly
/// encloses an engine batch.
TEST(SweepEngine, PipelinesOpenPhaseSpansAroundEngineBatches) {
  obs::tracer().enable();
  obs::tracer().clear();
  {
    SweepEngine eng;
    (void)experiments::figure1(eng);
    (void)experiments::scaling_table(machine::Placement::Block, eng);
    (void)experiments::x86_comparison(core::Precision::FP64, false, eng);
  }
  obs::tracer().disable();

  const auto events = obs::tracer().events();
  for (const std::string name :
       {"phase:figure1", "phase:scaling_table(block)",
        "phase:x86_comparison(FP64,single)"}) {
    std::uint64_t phase_id = 0;
    for (const auto& ev : events) {
      if (ev.name == name) phase_id = ev.id;
    }
    ASSERT_NE(phase_id, 0u) << name;
    bool has_batch_child = false;
    for (const auto& ev : events) {
      has_batch_child |= ev.parent == phase_id &&
                         (ev.name == "SweepEngine::run_grid" ||
                          ev.name == "SweepEngine::run_batch");
    }
    EXPECT_TRUE(has_batch_child) << name;
  }
}

/// Exact number of evaluation points one regeneration of the 11 paper
/// artifacts (check::run_all_artifacts) asks the engine for, each
/// priced once (the engine memoizes nothing, so simulations ==
/// requests). Any change means a pipeline now asks for different points
/// and must be re-pinned deliberately.
constexpr std::uint64_t kPinnedRegenerationPoints = 3431;

/// Every pipeline the bench binaries run, rendered to text: the 11
/// paper artifacts, background_d1_vs_v2's three whole-suite sweeps and
/// the best-thread search over every class and precision.
std::string render_pipeline_set(SweepEngine& eng) {
  std::ostringstream out;
  out << std::setprecision(17);
  for (const auto& a : check::run_all_artifacts(eng)) {
    out << a.name << '\n' << a.csv.text();
  }
  auto kernel_times = [&](const machine::MachineDescriptor& m,
                          core::VectorMode mode, core::CompilerId comp) {
    sim::SimConfig cfg;
    cfg.precision = core::Precision::FP32;
    cfg.vector_mode = mode;
    cfg.compiler = comp;
    cfg.nthreads = 1;
    const auto times = experiments::kernel_times(m, cfg, eng);
    for (std::size_t i = 0; i < times.size(); ++i) {
      out << m.name << ',' << kernels::all_signatures()[i].name << ','
          << times[i] << '\n';
    }
  };
  kernel_times(machine::visionfive_v2(), core::VectorMode::VLS,
               core::CompilerId::Gcc);
  kernel_times(machine::allwinner_d1(), core::VectorMode::Scalar,
               core::CompilerId::Gcc);
  kernel_times(machine::allwinner_d1(), core::VectorMode::VLS,
               core::CompilerId::Clang);
  for (const auto prec : {core::Precision::FP32, core::Precision::FP64}) {
    for (const auto g : core::all_groups) {
      out << "best_threads," << core::to_string(g) << ','
          << experiments::best_sg2042_threads(g, prec, eng) << '\n';
    }
  }
  return out.str();
}

TEST(SweepEngine, RegenerationPricesThePinnedPointCount) {
  SweepEngine eng;
  (void)check::run_all_artifacts(eng);
  EXPECT_EQ(eng.counters().requests, kPinnedRegenerationPoints);
  EXPECT_EQ(eng.counters().simulations, kPinnedRegenerationPoints);
}

TEST(SweepEngine, PipelineSetIsIdenticalOnReuse) {
  SweepEngine eng;
  const auto first = render_pipeline_set(eng);
  const auto once = eng.counters().simulations;
  EXPECT_EQ(once, eng.counters().requests);
  const auto reuse = render_pipeline_set(eng);
  EXPECT_EQ(eng.counters().simulations, 2 * once)
      << "the reuse pass must price every point again";
  // Whole-text comparison; a mismatch names the pair, not the diff.
  EXPECT_TRUE(reuse == first) << "first run vs reuse";
}

TEST(SweepEngine, HarnessPersistOptionsWriteNothingAndChangeNothing) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("sgp_engine_inert_" +
                        std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The options perfbench's paper_regen builds its resumed engines with.
  EngineOptions harness;
  harness.jobs = 2;
  EnginePersistence persist;
  persist.store.dir = (dir / "store").string();
  persist.store.warn = false;
  harness.persist = persist;

  // Each engine is destroyed before the directory is listed: a store
  // would write its last segment on destruction.
  auto run = [](const EngineOptions& opt, EngineCounters& counters) {
    SweepEngine eng(opt);
    std::string text = render_pipeline_set(eng);
    text += render_pipeline_set(eng);  // the reuse pass
    counters = eng.counters();
    return text;
  };
  EngineCounters with{}, without{};
  const std::string with_text = run(harness, with);
  const std::string without_text = run(EngineOptions{}, without);

  EXPECT_TRUE(with_text == without_text) << "persist option vs none";
  EXPECT_EQ(with.requests, without.requests);
  EXPECT_EQ(with.simulations, with.requests);
  EXPECT_EQ(with.simulations, without.simulations);
  EXPECT_EQ(with.simulators_built, without.simulators_built);
  EXPECT_EQ(with.batches, without.batches);
  EXPECT_EQ(with.persist.store.segments_loaded, 0u);

  std::vector<std::string> created;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    created.push_back(e.path().string());
  }
  EXPECT_TRUE(created.empty()) << "first file created: " << created.front();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sgp::engine
