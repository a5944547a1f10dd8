// Sweep-engine contract tests: the engine is a pure scheduling/caching
// layer, so (1) a cache hit returns exactly the breakdown the miss
// computed, (2) a parallel run is bit-identical to a forced-serial run,
// (3) the counters account for every request, (4) a throwing point
// fails the batch without poisoning the engine, (5) a pipeline
// produces identical outputs with the memo cache on and off, with
// fewer simulations when it is on, and (6) the whole pipeline set is
// pinned to an exact simulation count.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifacts.hpp"
#include "engine/engine.hpp"
#include "experiments/experiments.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "obs/metrics.hpp"
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

TEST(SweepEngine, CacheHitReturnsTheIdenticalBreakdown) {
  SweepEngine eng({.jobs = 1});
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  const auto cfg = fp32_threads(32);

  const auto first = run_one(eng, {&m, &sig, cfg});
  const auto second = run_one(eng, {&m, &sig, cfg});
  expect_same_breakdown(first, second);

  const auto c = eng.counters();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.simulations, 1u);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.cache_entries, 1u);
}

std::uint64_t pool_dispatches() {
  return obs::registry().counter("pool.dispatches").value();
}

TEST(SweepEngine, ParallelGridIsBitIdenticalToSerial) {
  SweepEngine parallel({.jobs = 8});
  SweepEngine serial({.jobs = 1});
  const auto m = machine::sg2042();
  const auto sigs = kernels::all_signatures();
  // 64 signatures x 64 thread counts: enough misses to give each of
  // the 8 workers a full pricing task, so the batch reaches the pool.
  std::vector<sim::SimConfig> cfgs;
  for (int t = 1; t <= 64; ++t) cfgs.push_back(fp32_threads(t));
  ASSERT_GE(sigs.size() * cfgs.size(),
            8 * SweepEngine::kPriceChunk);

  const std::uint64_t dispatches = pool_dispatches();
  const auto par = parallel.run_grid(m, sigs, cfgs);
  EXPECT_GT(pool_dispatches(), dispatches);
  const auto ser = serial.run_grid(m, sigs, cfgs);
  ASSERT_EQ(par.size(), ser.size());
  ASSERT_EQ(par.size(), sigs.size() * cfgs.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    expect_same_breakdown(par[i], ser[i]);
  }
  EXPECT_EQ(parallel.counters().simulations,
            serial.counters().simulations);
}

TEST(SweepEngine, PipelinesAreIdenticalUnderParallelismAndCacheReuse) {
  SweepEngine parallel({.jobs = 8});
  SweepEngine serial({.jobs = 1});

  const auto fig1_par = experiments::figure1(parallel);
  const auto fig1_ser = experiments::figure1(serial);
  ASSERT_EQ(fig1_par.size(), fig1_ser.size());
  for (std::size_t s = 0; s < fig1_par.size(); ++s) {
    EXPECT_EQ(fig1_par[s].label, fig1_ser[s].label);
    // Exact double equality: map operator== compares values with ==.
    EXPECT_TRUE(fig1_par[s].per_kernel_ratio ==
                fig1_ser[s].per_kernel_ratio)
        << fig1_par[s].label;
    for (std::size_t g = 0; g < fig1_par[s].groups.size(); ++g) {
      EXPECT_EQ(fig1_par[s].groups[g].mean, fig1_ser[s].groups[g].mean);
      EXPECT_EQ(fig1_par[s].groups[g].min, fig1_ser[s].groups[g].min);
      EXPECT_EQ(fig1_par[s].groups[g].max, fig1_ser[s].groups[g].max);
    }
  }

  const auto tab_par =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 parallel);
  const auto tab_ser =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 serial);
  ASSERT_TRUE(tab_par.thread_counts == tab_ser.thread_counts);
  for (const auto g : core::all_groups) {
    const auto& p = tab_par.cells.at(g);
    const auto& s = tab_ser.cells.at(g);
    ASSERT_EQ(p.size(), s.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[i].speedup, s[i].speedup);
      EXPECT_EQ(p[i].parallel_efficiency, s[i].parallel_efficiency);
    }
  }

  // A second identical pipeline run must be served fully from cache.
  const auto sims_before = parallel.counters().simulations;
  const auto again = experiments::figure1(parallel);
  EXPECT_EQ(parallel.counters().simulations, sims_before);
  ASSERT_EQ(again.size(), fig1_par.size());
  for (std::size_t s = 0; s < again.size(); ++s) {
    EXPECT_TRUE(again[s].per_kernel_ratio ==
                fig1_par[s].per_kernel_ratio);
  }
}

/// Walks parent links: true when span `id` lies under span `ancestor`.
bool descends_from(const std::vector<obs::SpanEvent>& events,
                   std::uint64_t id, std::uint64_t ancestor) {
  while (id != 0) {
    if (id == ancestor) return true;
    const auto it = std::find_if(events.begin(), events.end(),
                                 [&](const auto& ev) { return ev.id == id; });
    if (it == events.end()) return false;
    id = it->parent;
  }
  return false;
}

TEST(SweepEngine, OnlyBatchesThatFillThePoolDispatchToIt) {
  const auto m = machine::sg2042();
  const auto sigs = kernels::all_signatures();
  // 64 signatures x 8 thread counts = 512 misses, one full pricing task
  // per worker at 2 jobs; then 64 fresh misses, too few to split.
  std::vector<sim::SimConfig> large;
  for (int t = 1; t <= 8; ++t) large.push_back(fp32_threads(t));
  ASSERT_GE(sigs.size() * large.size(), 2 * SweepEngine::kPriceChunk);
  const std::vector<sim::SimConfig> small = {fp32_threads(9)};

  SweepEngine eng({.jobs = 2});
  ASSERT_EQ(eng.jobs(), 2);
  auto traced_events = [&](std::span<const sim::SimConfig> cfgs) {
    obs::tracer().enable();
    obs::tracer().clear();
    (void)eng.run_grid(m, sigs, cfgs);
    obs::tracer().disable();
    return obs::tracer().events();
  };

  const auto events = traced_events(large);
  std::uint64_t batch_id = 0;
  for (const auto& ev : events) {
    if (ev.name == "SweepEngine::run_batch") batch_id = ev.id;
  }
  ASSERT_NE(batch_id, 0u);
  std::size_t dispatches = 0;
  std::size_t chunks = 0;
  for (const auto& ev : events) {
    if (ev.name.starts_with("ThreadPool::")) {
      ++dispatches;
      EXPECT_TRUE(descends_from(events, ev.id, batch_id)) << ev.name;
    }
    if (ev.name == "pool.chunk") {
      ++chunks;
      EXPECT_TRUE(descends_from(events, ev.id, batch_id));
    }
  }
  EXPECT_GT(dispatches, 0u);
  EXPECT_GT(chunks, 0u);

  const auto inline_events = traced_events(small);
  EXPECT_EQ(eng.counters().simulations, sigs.size() * (large.size() + 1));
  bool priced_in_batch = false;
  for (const auto& ev : inline_events) {
    EXPECT_FALSE(ev.name.starts_with("ThreadPool::")) << ev.name;
    EXPECT_NE(ev.name, "pool.chunk");
    priced_in_batch |= ev.name == "SweepEngine::run_batch";
  }
  EXPECT_TRUE(priced_in_batch);
}

TEST(SweepEngine, ThrowingPointFailsTheBatchButNotTheEngine) {
  const auto m = machine::sg2042();
  auto sigs = kernels::all_signatures();
  auto bad = sigs.front();
  bad.iters_per_rep = 0.0;  // Simulator::run rejects this

  // One thread count prices on the calling thread; 16 give 1,024
  // misses, a full task per worker, so the throw crosses the pool.
  for (const int nthreads : {1, 16}) {
    SweepEngine eng({.jobs = 4});
    std::vector<SweepPoint> points;
    for (int t = 1; t <= nthreads; ++t) {
      for (const auto& s : sigs) points.push_back({&m, &s, fp32_threads(t)});
    }
    points.push_back({&m, &bad, fp32_threads(1)});

    const std::uint64_t dispatches = pool_dispatches();
    EXPECT_THROW((void)eng.run_batch(points), std::invalid_argument);
    EXPECT_EQ(pool_dispatches() > dispatches,
              points.size() >= 4 * SweepEngine::kPriceChunk)
        << nthreads;

    // The engine stays usable and the cached good points are intact.
    const auto ok = run_one(eng, {&m, &sigs.front(), fp32_threads(1)});
    EXPECT_GT(ok.total_s, 0.0);
  }
}

TEST(SweepEngine, CacheOffReplicatesEveryRequest) {
  SweepEngine eng({.jobs = 1, .use_cache = false});
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  const auto cfg = fp32_threads(32);
  const auto a = run_one(eng, {&m, &sig, cfg});
  const auto b = run_one(eng, {&m, &sig, cfg});
  expect_same_breakdown(a, b);
  const auto c = eng.counters();
  EXPECT_EQ(c.simulations, 2u);
  EXPECT_EQ(c.cache_hits, 0u);
}

TEST(SweepEngine, CacheOnAndOffProduceTheSameX86Comparison) {
  SweepEngine uncached({.jobs = 0, .use_cache = false});
  SweepEngine cached({.jobs = 0});

  experiments::reset_best_threads_memo();
  const auto off = experiments::x86_comparison(
      core::Precision::FP32, /*multithreaded=*/true, uncached);
  experiments::reset_best_threads_memo();
  const auto on = experiments::x86_comparison(
      core::Precision::FP32, /*multithreaded=*/true, cached);
  experiments::reset_best_threads_memo();

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t s = 0; s < off.size(); ++s) {
    EXPECT_EQ(off[s].label, on[s].label);
    EXPECT_TRUE(off[s].per_kernel_ratio == on[s].per_kernel_ratio)
        << off[s].label;
    ASSERT_EQ(off[s].groups.size(), on[s].groups.size()) << off[s].label;
    for (std::size_t g = 0; g < off[s].groups.size(); ++g) {
      EXPECT_EQ(off[s].groups[g].group, on[s].groups[g].group);
      EXPECT_EQ(off[s].groups[g].mean, on[s].groups[g].mean);
      EXPECT_EQ(off[s].groups[g].min, on[s].groups[g].min);
      EXPECT_EQ(off[s].groups[g].max, on[s].groups[g].max);
      EXPECT_EQ(off[s].groups[g].kernels, on[s].groups[g].kernels);
    }
  }

  // The x86 baselines share the best-thread search's points, so only
  // the cached engine stops re-simulating them.
  EXPECT_LT(cached.counters().simulations, uncached.counters().simulations);
}

TEST(SweepEngine, BestThreadsMemoAsksTheEngineOnce) {
  SweepEngine eng({.jobs = 1});
  experiments::reset_best_threads_memo();
  const int first = experiments::best_sg2042_threads(
      core::Group::Stream, core::Precision::FP32, eng);
  const auto requests_after_first = eng.counters().requests;
  EXPECT_GT(requests_after_first, 0u);
  const int second = experiments::best_sg2042_threads(
      core::Group::Stream, core::Precision::FP32, eng);
  EXPECT_EQ(first, second);
  EXPECT_EQ(eng.counters().requests, requests_after_first);
  experiments::reset_best_threads_memo();
}

/// perfbench's experiments layer is the self time of the `phase:<name>`
/// spans the pipelines open; pin those names and that each one directly
/// encloses an engine batch.
TEST(SweepEngine, PipelinesOpenPhaseSpansAroundEngineBatches) {
  obs::tracer().enable();
  obs::tracer().clear();
  {
    SweepEngine eng({.jobs = 1});
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

/// Exact Simulator::run count of a forced-serial cached engine over
/// render_pipeline_set: every distinct evaluation point the pipelines
/// ask for, simulated once. Any change means a pipeline now asks for
/// different points (or the memo cache stopped deduplicating them) and
/// must be re-pinned deliberately.
constexpr std::uint64_t kPinnedSimulations = 3162;

/// Every pipeline the bench binaries run, rendered to text: the 11
/// paper artifacts, background_d1_vs_v2's three whole-suite sweeps and
/// the best-thread search over every class and precision.
std::string render_pipeline_set(SweepEngine& eng) {
  experiments::reset_best_threads_memo();
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
    for (const auto& [name, t] : experiments::kernel_times(m, cfg, eng)) {
      out << m.name << ',' << name << ',' << t << '\n';
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

TEST(SweepEngine, PipelineSetIsPinnedAndIdenticalAcrossCacheJobsAndReuse) {
  SweepEngine uncached({.jobs = 1, .use_cache = false});
  SweepEngine parallel({.jobs = 4});
  SweepEngine serial({.jobs = 1});

  const auto reference = render_pipeline_set(uncached);
  const auto first = render_pipeline_set(parallel);
  const auto sims_first = parallel.counters().simulations;
  const auto reuse = render_pipeline_set(parallel);
  const auto forced_serial = render_pipeline_set(serial);

  EXPECT_EQ(serial.counters().simulations, kPinnedSimulations);
  EXPECT_LE(sims_first, kPinnedSimulations);
  EXPECT_EQ(parallel.counters().simulations, sims_first)
      << "the reuse pass simulated";
  // Whole-text comparisons; a mismatch names the pair, not the diff.
  EXPECT_TRUE(first == reference) << "cache on vs off";
  EXPECT_TRUE(forced_serial == first) << "serial vs parallel";
  EXPECT_TRUE(reuse == first) << "first run vs reuse";
}

}  // namespace
}  // namespace sgp::engine
