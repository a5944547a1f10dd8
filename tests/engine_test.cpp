// Sweep-engine contract tests: the engine is a pure scheduling/caching
// layer, so (1) a cache hit returns exactly the breakdown the miss
// computed, (2) a large batch is bit-identical to scalar
// Simulator::run, (3) the counters account for every request, (4) a
// throwing point fails the batch without poisoning the engine, (5) a
// pipeline produces identical outputs with the memo cache on and off,
// with fewer simulations when it is on, and (6) the whole pipeline set
// is pinned to an exact simulation count, and (7) the persist options
// the benchmark harness still sets change nothing and write nothing.
// The flat memo table itself is tested directly (SimCache.*).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "check/artifacts.hpp"
#include "engine/cache.hpp"
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

TEST(SweepEngine, CacheHitReturnsTheIdenticalBreakdown) {
  SweepEngine eng;
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

TEST(SweepEngine, PipelinesAreIdenticalWithCacheOnAndOffAndOnReuse) {
  SweepEngine cached;
  SweepEngine uncached({.use_cache = false});

  const auto fig1_on = experiments::figure1(cached);
  const auto fig1_off = experiments::figure1(uncached);
  ASSERT_EQ(fig1_on.size(), fig1_off.size());
  for (std::size_t s = 0; s < fig1_on.size(); ++s) {
    EXPECT_EQ(fig1_on[s].label, fig1_off[s].label);
    // Exact double equality: map operator== compares values with ==.
    EXPECT_TRUE(fig1_on[s].per_kernel_ratio ==
                fig1_off[s].per_kernel_ratio)
        << fig1_on[s].label;
    for (std::size_t g = 0; g < fig1_on[s].groups.size(); ++g) {
      EXPECT_EQ(fig1_on[s].groups[g].mean, fig1_off[s].groups[g].mean);
      EXPECT_EQ(fig1_on[s].groups[g].min, fig1_off[s].groups[g].min);
      EXPECT_EQ(fig1_on[s].groups[g].max, fig1_off[s].groups[g].max);
    }
  }

  const auto tab_on =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 cached);
  const auto tab_off =
      experiments::scaling_table(machine::Placement::ClusterCyclic,
                                 uncached);
  ASSERT_TRUE(tab_on.thread_counts == tab_off.thread_counts);
  for (const auto g : core::all_groups) {
    const auto& p = tab_on.cells.at(g);
    const auto& s = tab_off.cells.at(g);
    ASSERT_EQ(p.size(), s.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[i].speedup, s[i].speedup);
      EXPECT_EQ(p[i].parallel_efficiency, s[i].parallel_efficiency);
    }
  }

  // A second identical pipeline run must be served fully from cache.
  const auto sims_before = cached.counters().simulations;
  const auto again = experiments::figure1(cached);
  EXPECT_EQ(cached.counters().simulations, sims_before);
  ASSERT_EQ(again.size(), fig1_on.size());
  for (std::size_t s = 0; s < again.size(); ++s) {
    EXPECT_TRUE(again[s].per_kernel_ratio ==
                fig1_on[s].per_kernel_ratio);
  }
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

    // The engine stays usable and the cached good points are intact.
    const auto ok = run_one(eng, {&m, &sigs.front(), fp32_threads(1)});
    EXPECT_GT(ok.total_s, 0.0);
  }
}

TEST(SweepEngine, MutatedCopyOfATableSignatureIsPricedSeparately) {
  // Same name, one field changed: the copy must key apart from the
  // table entry it was made from, in the same batch and in the memo.
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
  for (int round = 0; round < 2; ++round) {  // cold, then from the memo
    const auto got = eng.run_batch(points);
    ASSERT_EQ(got.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_same_breakdown(got[i],
                            scalar.run(*points[i].signature, points[i].config));
    }
    EXPECT_NE(got[0].total_s, got[1].total_s);
  }
  const auto c = eng.counters();
  EXPECT_EQ(c.simulations, 4u);
  EXPECT_EQ(c.cache_entries, 4u);
  EXPECT_EQ(c.cache_hits, 4u);
}

TEST(SweepEngine, CacheOffReplicatesEveryRequest) {
  SweepEngine eng({.use_cache = false});
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
  SweepEngine uncached({.use_cache = false});
  SweepEngine cached;

  const auto off = experiments::x86_comparison(
      core::Precision::FP32, /*multithreaded=*/true, uncached);
  const auto on = experiments::x86_comparison(
      core::Precision::FP32, /*multithreaded=*/true, cached);

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

TEST(SweepEngine, RepeatedBestThreadsAskIsServedByTheEngineMemo) {
  SweepEngine eng;
  const int first = experiments::best_sg2042_threads(
      core::Group::Stream, core::Precision::FP32, eng);
  const auto sims_after_first = eng.counters().simulations;
  EXPECT_GT(sims_after_first, 0u);
  const int second = experiments::best_sg2042_threads(
      core::Group::Stream, core::Precision::FP32, eng);
  EXPECT_EQ(first, second);
  EXPECT_EQ(eng.counters().simulations, sims_after_first);
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

/// Exact Simulator::run count of a cached engine over
/// render_pipeline_set: every distinct evaluation point the pipelines
/// ask for, simulated once. Any change means a pipeline now asks for
/// different points (or the memo cache stopped deduplicating them) and
/// must be re-pinned deliberately.
constexpr std::uint64_t kPinnedSimulations = 3162;

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

TEST(SweepEngine, PipelineSetIsPinnedAndIdenticalAcrossCacheAndReuse) {
  SweepEngine uncached({.use_cache = false});
  SweepEngine cached;

  const auto reference = render_pipeline_set(uncached);
  const auto first = render_pipeline_set(cached);
  EXPECT_EQ(cached.counters().simulations, kPinnedSimulations);
  const auto reuse = render_pipeline_set(cached);
  EXPECT_EQ(cached.counters().simulations, kPinnedSimulations)
      << "the reuse pass simulated";
  // Whole-text comparisons; a mismatch names the pair, not the diff.
  EXPECT_TRUE(first == reference) << "cache on vs off";
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
  EXPECT_EQ(with.cache_hits, without.cache_hits);
  EXPECT_EQ(with.cache_misses, without.cache_misses);
  EXPECT_EQ(with.simulations, kPinnedSimulations);
  EXPECT_EQ(with.simulations, without.simulations);
  EXPECT_EQ(with.simulators_built, without.simulators_built);
  EXPECT_EQ(with.batches, without.batches);
  EXPECT_EQ(with.cache_entries, without.cache_entries);
  EXPECT_EQ(with.persist.store.segments_loaded, 0u);

  std::vector<std::string> created;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    created.push_back(e.path().string());
  }
  EXPECT_TRUE(created.empty()) << "first file created: " << created.front();
  fs::remove_all(dir);
}

// ------------------------------------------------- the flat memo --

/// Inverse of an odd multiplier modulo 2^64 (Newton's iteration; each
/// step doubles the correct low bits, starting from 3).
constexpr std::uint64_t inverse_of(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

/// A key whose CacheKeyHash is exactly `h`: machine and signature are
/// fixed and the config word is solved for. CacheKeyHash ends in
/// h ^ (h >> 32), which is its own inverse.
CacheKey key_with_hash(std::uint64_t h) {
  constexpr std::uint64_t kMachine = 0x1234, kSignature = 0x5678;
  const std::uint64_t prefix = kMachine * 0x9e3779b97f4a7c15ull ^
                               kSignature * 0xc2b2ae3d27d4eb4full;
  return {kMachine, kSignature,
          ((h ^ (h >> 32)) ^ prefix) * inverse_of(0x165667b19e3779f9ull)};
}

sim::TimeBreakdown value_of(double v) {
  sim::TimeBreakdown tb;
  tb.compute_s = v;
  tb.total_s = v;
  return tb;
}

/// One batch through the memo the way SweepEngine runs it: a lookup,
/// then an insert of value_of(key index + offset) for each of the first
/// `priced` misses (a throw part-way through the batch prices fewer).
/// Returns the number of hits.
std::size_t lookup_then_insert(SimCache& cache,
                               std::span<const CacheKey> keys, double offset,
                               std::size_t priced = SIZE_MAX) {
  std::vector<sim::TimeBreakdown> results(keys.size());
  std::vector<std::uint8_t> hit(keys.size());
  std::vector<std::uint32_t> slot(keys.size());
  cache.lookup_batch(keys, results, hit, slot);
  for (std::size_t i = 0; i < keys.size() && priced > 0; ++i) {
    if (hit[i]) continue;
    cache.insert(keys[i], slot[i], value_of(static_cast<double>(i) + offset));
    --priced;
  }
  return static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1));
}

/// How many of `keys` the memo holds with value_of(i + offset).
std::size_t found_with(SimCache& cache, std::span<const CacheKey> keys,
                       double offset) {
  std::vector<sim::TimeBreakdown> results(keys.size());
  std::vector<std::uint8_t> hit(keys.size());
  std::vector<std::uint32_t> slot(keys.size());
  cache.lookup_batch(keys, results, hit, slot);
  std::size_t found = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    found += hit[i] && results[i].total_s == static_cast<double>(i) + offset;
  }
  return found;
}

TEST(SimCache, FlatTableKeepsEveryKeyThroughGrowthAndClear) {
  // 100,000 keys whose hashes all end in the same 16 bits, so a table
  // indexed by low hash bits would put every key in one probe chain.
  constexpr std::size_t kKeys = 100'000;
  std::vector<CacheKey> keys;
  for (std::uint64_t i = 0; i < 2 * kKeys; ++i) {
    keys.push_back(key_with_hash(i << 16 | 0xbeef));
  }
  ASSERT_EQ(CacheKeyHash{}(keys.back()) & 0xffff, 0xbeefu);
  const std::span<const CacheKey> stored(keys.data(), kKeys);
  const std::span<const CacheKey> absent(keys.data() + kKeys, kKeys);

  SimCache cache;
  for (const double offset : {0.0, 0.5}) {  // the second pass reuses
    // One batch far larger than the empty index: sized once, every
    // miss inserted from where its lookup probe ended.
    EXPECT_EQ(lookup_then_insert(cache, stored, offset), 0u);
    EXPECT_EQ(cache.stats().entries, kKeys);
    // A second batch of the same keys hits every one and keeps the
    // first value.
    EXPECT_EQ(lookup_then_insert(cache, stored, -1.0), kKeys);
    EXPECT_EQ(found_with(cache, stored, offset), kKeys);
    EXPECT_EQ(found_with(cache, absent, 0.0), 0u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(found_with(cache, stored.first(1), offset), 0u);
  }
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 4 * kKeys);
  EXPECT_EQ(st.misses, 4 * kKeys + 2);
}

TEST(SimCache, MissThenInsertHandlesGrowthDuplicatesAndPartialBatches) {
  // Keys sharing their low 16 hash bits, as above, so probe chains are
  // long and resumed probes really walk.
  std::vector<CacheKey> keys;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    keys.push_back(key_with_hash(i << 16 | 0x1234));
  }
  const std::span<const CacheKey> all(keys);
  SimCache cache;

  // A small batch, then one larger than the index it leaves (64 slots):
  // the lookup grows the index once and the inserts still land.
  EXPECT_EQ(lookup_then_insert(cache, all.first(10), 0.0), 0u);
  EXPECT_EQ(lookup_then_insert(cache, all.first(1000), 0.0), 10u);
  EXPECT_EQ(cache.stats().entries, 1000u);
  EXPECT_EQ(found_with(cache, all.first(1000), 0.0), 1000u);

  // The same key twice in one batch (and next to a new one): both miss,
  // both are inserted, one entry is stored with the first value.
  const std::vector<CacheKey> twice{keys[1000], keys[1001], keys[1000]};
  EXPECT_EQ(lookup_then_insert(cache, twice, 0.0), 0u);
  EXPECT_EQ(cache.stats().entries, 1002u);
  std::vector<sim::TimeBreakdown> results(twice.size());
  std::vector<std::uint8_t> hit(twice.size());
  std::vector<std::uint32_t> slot(twice.size());
  cache.lookup_batch(twice, results, hit, slot);
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 3);
  EXPECT_EQ(results[0].total_s, 0.0);
  EXPECT_EQ(results[1].total_s, 1.0);
  EXPECT_EQ(results[2].total_s, 0.0);

  // A batch that stops part-way, as when a group throws: the misses
  // priced before the stop stay found, the rest stay absent, and the
  // next full batch fills them in.
  const auto tail = all.subspan(1000);  // keys 1000.. (two already held)
  EXPECT_EQ(lookup_then_insert(cache, tail, 0.0, 500), 2u);
  EXPECT_EQ(cache.stats().entries, 1502u);
  EXPECT_EQ(found_with(cache, tail.first(502), 0.0), 502u);
  EXPECT_EQ(found_with(cache, tail.subspan(502), 502.0), 0u);
  EXPECT_EQ(lookup_then_insert(cache, tail, 0.0), 502u);
  EXPECT_EQ(cache.stats().entries, keys.size());
  EXPECT_EQ(found_with(cache, all.first(1000), 0.0), 1000u);
  EXPECT_EQ(found_with(cache, tail, 0.0), tail.size());
}

}  // namespace
}  // namespace sgp::engine
