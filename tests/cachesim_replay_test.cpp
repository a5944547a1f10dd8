// Tests for the streaming replay engine (src/cachesim/replay.hpp): the
// TraceCursor as the canonical trace order, exactness of line-run
// coalescing against the per-access path, steady-state early exit
// (Gather included), the measured rep's DRAM bytes, set shards summing
// to the whole replay, and the writeback-propagation fix in Hierarchy.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/replay.hpp"
#include "cachesim/trace.hpp"
#include "check/fuzz.hpp"
#include "machine/descriptor.hpp"
#include "obs/metrics.hpp"

namespace sgp::cachesim {
namespace {

using core::AccessPattern;

const AccessPattern kAllPatterns[] = {
    AccessPattern::Streaming,  AccessPattern::Strided,
    AccessPattern::Stencil1D,  AccessPattern::Stencil2D,
    AccessPattern::Stencil3D,  AccessPattern::Gather,
    AccessPattern::Reduction,  AccessPattern::Sequential,
    AccessPattern::BlockedMatrix, AccessPattern::Sort,
};

SweepSpec small_spec(AccessPattern p, std::size_t arrays = 2,
                     std::size_t elems = 1 << 10) {
  SweepSpec spec;
  spec.pattern = p;
  spec.arrays = arrays;
  spec.elems = elems;
  spec.stride_elems = 8;
  return spec;
}

Trace flatten(TraceCursor& cursor) {
  Trace out;
  AccessRun run;
  while (cursor.next(run)) {
    Addr addr = run.base;
    for (std::uint64_t k = 0; k < run.count; ++k) {
      out.push_back({addr, run.is_write});
      addr += run.step_bytes;
    }
  }
  return out;
}

CacheConfig tiny_cache(std::size_t size = 1024, std::size_t ways = 2,
                       std::size_t line = 64) {
  CacheConfig c;
  c.name = "T";
  c.size_bytes = size;
  c.ways = ways;
  c.line_bytes = line;
  return c;
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& [n, v] : obs::registry().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

// ---------------------------------------------------------- TraceCursor --
TEST(TraceCursor, FlattensToGenerateSweepOnEveryPattern) {
  for (const auto p : kAllPatterns) {
    const auto spec = small_spec(p);
    TraceCursor cursor(spec);
    const auto flat = flatten(cursor);
    const auto trace = generate_sweep(spec);
    ASSERT_EQ(flat.size(), trace.size()) << core::to_string(p);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      ASSERT_EQ(flat[i].addr, trace[i].addr) << core::to_string(p);
      ASSERT_EQ(flat[i].is_write, trace[i].is_write) << core::to_string(p);
    }
  }
}

TEST(TraceCursor, TotalAccessesIsExactOnEveryPattern) {
  for (const auto p : kAllPatterns) {
    for (const std::size_t arrays : {std::size_t{1}, std::size_t{3}}) {
      const auto spec = small_spec(p, arrays, 777);  // non-power-of-two
      TraceCursor cursor(spec);
      const auto flat = flatten(cursor);
      EXPECT_EQ(cursor.total_accesses(), flat.size())
          << core::to_string(p) << " arrays=" << arrays;
    }
  }
}

TEST(TraceCursor, GenerateSweepReservesExactly) {
  // The legacy generator reserved elems*arrays; Stencil1D emits ~4 per
  // element and Gather 2, forcing mid-build reallocation (capacity
  // overshoot). With per-pattern exact reserves the vector never grows.
  for (const auto p : kAllPatterns) {
    const auto trace = generate_sweep(small_spec(p));
    EXPECT_EQ(trace.capacity(), trace.size()) << core::to_string(p);
  }
}

TEST(TraceCursor, RewindReplaysTheIdenticalSequence) {
  for (const auto p : {AccessPattern::Gather, AccessPattern::Strided,
                       AccessPattern::Streaming}) {
    TraceCursor cursor(small_spec(p));
    const auto first = flatten(cursor);
    cursor.rewind();
    const auto second = flatten(cursor);
    ASSERT_EQ(first.size(), second.size()) << core::to_string(p);
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_EQ(first[i].addr, second[i].addr) << core::to_string(p);
    }
  }
}

TEST(TraceCursor, RejectsEmptySpec) {
  SweepSpec spec;
  spec.elems = 0;
  EXPECT_THROW(TraceCursor{spec}, std::invalid_argument);
  spec = SweepSpec{};
  spec.arrays = 0;
  EXPECT_THROW(TraceCursor{spec}, std::invalid_argument);
}

// ----------------------------------------------- run/per-access identity --
void expect_same_stats(const Hierarchy& a, const Hierarchy& b,
                       const std::string& what) {
  ASSERT_EQ(a.levels(), b.levels());
  for (std::size_t l = 0; l < a.levels(); ++l) {
    EXPECT_EQ(a.level(l).stats(), b.level(l).stats())
        << what << " level " << l;
  }
  EXPECT_EQ(a.dram_bytes(), b.dram_bytes()) << what;
}

void run_identity_trial(std::vector<CacheConfig> cfgs,
                        const std::string& what) {
  Hierarchy by_run(cfgs);
  Hierarchy by_access(cfgs);
  std::mt19937 rng(99);
  std::uniform_int_distribution<Addr> base(0, 1 << 16);
  std::uniform_int_distribution<int> step_pick(0, 4);
  std::uniform_int_distribution<std::uint64_t> count(1, 64);
  const std::uint64_t steps[] = {0, 4, 8, 64, 96};

  for (int t = 0; t < 500; ++t) {
    AccessRun run;
    run.base = base(rng);
    run.step_bytes = steps[step_pick(rng)];
    run.count = count(rng);
    run.is_write = (t % 3) == 0;
    by_run.access_run(run);
    Addr addr = run.base;
    for (std::uint64_t k = 0; k < run.count; ++k) {
      by_access.access(addr, run.is_write);
      addr += run.step_bytes;
    }
    expect_same_stats(by_run, by_access, what);
  }
}

TEST(AccessRun, BitIdenticalToPerAccessLru) {
  run_identity_trial({tiny_cache(1024), tiny_cache(8192, 4)}, "lru");
}

TEST(AccessRun, BitIdenticalToPerAccessFifo) {
  auto l1 = tiny_cache(1024);
  l1.policy = ReplacementPolicy::FIFO;
  auto l2 = tiny_cache(8192, 4);
  l2.policy = ReplacementPolicy::FIFO;
  run_identity_trial({l1, l2}, "fifo");
}

TEST(AccessRun, BitIdenticalToPerAccessWriteAround) {
  // A write-around miss installs nothing, so every access of a run
  // falls through to the next level — the multiplicity must survive.
  auto l1 = tiny_cache(1024);
  l1.write_allocate = false;
  run_identity_trial({l1, tiny_cache(8192, 4)}, "write-around");
}

TEST(AccessRun, BitIdenticalToPerAccessSingleLevel) {
  run_identity_trial({tiny_cache(1024)}, "single-level");
}

TEST(AccessRun, CoalescesSameLineAccesses) {
  Hierarchy h({tiny_cache(1024)});
  h.access_run(AccessRun{0, 8, 8, false});  // one 64B line
  EXPECT_EQ(h.telemetry().runs, 1u);
  EXPECT_EQ(h.telemetry().line_segments, 1u);
  EXPECT_EQ(h.telemetry().coalesced, 7u);
  EXPECT_EQ(h.telemetry().accesses, 8u);
  EXPECT_EQ(h.level(0).stats().read_misses, 1u);
  EXPECT_EQ(h.level(0).stats().read_hits, 7u);
}

// ------------------------------------------------- stream/vector replay --
TEST(Replay, StreamMatchesVectorOnEveryPattern) {
  const auto m = machine::sg2042();
  const auto cfgs = hierarchy_configs(m);
  // 1 << 17 elements x 2 arrays x 8 bytes = 2 MiB, past sg2042's 1 MiB
  // L2, so the identity also covers sweeps that miss to DRAM.
  for (const std::size_t elems :
       {std::size_t{1} << 12, std::size_t{1} << 17}) {
    for (const auto p : kAllPatterns) {
      const auto spec = small_spec(p, 2, elems);
      const auto what =
          std::string(core::to_string(p)) + " elems=" + std::to_string(elems);
      const auto vec = check::replay_vector(cfgs, spec, 5);
      const auto str = replay(m, spec, 5);
      EXPECT_EQ(vec.accesses, str.accesses) << what;
      EXPECT_EQ(vec.steady_miss_rate(), str.steady_miss_rate()) << what;
      EXPECT_EQ(vec.steady_dram_bytes(), str.steady_dram_bytes()) << what;
      expect_same_stats(vec.hierarchy, str.hierarchy, what);
    }
  }
}

TEST(Replay, EarlyExitExtrapolationIsExact) {
  // replay_vector simulates every rep, so it is the reference for the
  // extrapolated reps.
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Streaming, 2, 1 << 12);
  const auto exact = check::replay_vector(hierarchy_configs(m), spec, 24);
  const auto fast = replay(m, spec, 24);
  EXPECT_EQ(exact.accesses, fast.accesses);
  EXPECT_EQ(exact.steady_miss_rate(), fast.steady_miss_rate());
  EXPECT_EQ(exact.steady_dram_bytes(), fast.steady_dram_bytes());
  expect_same_stats(exact.hierarchy, fast.hierarchy, "early-exit");
  // The fast path really did skip simulation work: its telemetry counts
  // only the reps it executed before extrapolating.
  EXPECT_LT(fast.hierarchy.telemetry().accesses, fast.accesses);
}

TEST(Replay, EarlyExitReportsSkippedRepsToObs) {
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Streaming, 2, 1 << 10);
  const auto before = counter_value("cachesim.reps_skipped");
  (void)replay(m, spec, 10);
  const auto after = counter_value("cachesim.reps_skipped");
  EXPECT_GT(after, before);
}

TEST(Replay, GatherExtrapolationIsExact) {
  // Every rep rewinds the cursor, which re-seeds Gather's index stream,
  // so each rep replays the identical gathered addresses and the
  // periodicity argument applies to Gather like any other pattern. The
  // extrapolating path must still be bit-identical to replay_vector,
  // which simulates every rep.
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Gather, 2, 1 << 10);
  const auto exact = check::replay_vector(hierarchy_configs(m), spec, 8);
  const auto fast = replay(m, spec, 8);
  EXPECT_EQ(exact.accesses, fast.accesses);
  EXPECT_EQ(exact.steady_miss_rate(), fast.steady_miss_rate());
  EXPECT_EQ(exact.steady_dram_bytes(), fast.steady_dram_bytes());
  expect_same_stats(exact.hierarchy, fast.hierarchy, "gather-early-exit");
  EXPECT_LT(fast.hierarchy.telemetry().accesses, fast.accesses);
  TraceCursor cursor(spec);
  EXPECT_EQ(fast.accesses, 8 * cursor.total_accesses());
}

TEST(Replay, SteadyDramBytesIsTheMeasuredRepsDramTraffic) {
  // Two reps of a sweep at twice visionfive_v2's L2, the shape of the
  // validator's DRAM-streaming case: streamed by hand, the measured
  // rep's traffic is the growth of dram_bytes() over it. The written
  // array makes the last level write back, so every term counts.
  const auto m = machine::visionfive_v2();
  const auto cfgs = hierarchy_configs(m);
  const auto spec =
      small_spec(AccessPattern::Streaming, 2, m.l2.size_bytes / 8);
  Hierarchy h(cfgs);
  TraceCursor cursor(spec);
  AccessRun run;
  while (cursor.next(run)) h.access_run(run);
  const auto warm_bytes = h.dram_bytes();
  cursor.rewind();
  while (cursor.next(run)) h.access_run(run);

  const auto rr = replay(m, spec, 2);
  expect_same_stats(rr.hierarchy, h, "hand-streamed");
  EXPECT_GT(h.level(h.levels() - 1).stats().writebacks, 0u);
  EXPECT_EQ(rr.steady_dram_bytes(), h.dram_bytes() - warm_bytes);
  EXPECT_EQ(check::replay_vector(cfgs, spec, 2).steady_dram_bytes(),
            rr.steady_dram_bytes());
}

TEST(Replay, SteadyDramBytesWritesBackWhatTheMeasuredRepWrote) {
  // A read+write sweep of two arrays, each the size of the last level:
  // in the measured rep every written line leaves the last level dirty
  // exactly once, so the rep's DRAM traffic beyond its last-level fills
  // is one writeback per written byte. Fills alone (writebacks dropped)
  // reach the validator's 1.25x write-allocate floor on some machines;
  // this check fails on every machine. It runs on each machine's
  // one-core hierarchy, whose last level is larger than the level
  // above; where a per-core share is not (Icelake's 1 MiB L2 over a
  // 1 MiB L3 share), lines are written back twice (see ROADMAP).
  for (const auto& m : machine::all_machines()) {
    const auto llc = hierarchy_configs(m).back();
    SweepSpec spec;
    spec.arrays = 2;
    spec.elem_bytes = 8;
    spec.elems = llc.size_bytes / spec.elem_bytes;

    // The final rep's last-level delta counts its fills as misses.
    const auto both = replay(m, spec, 2);
    const std::uint64_t fill_bytes =
        both.steady_delta.back().misses() * llc.line_bytes;
    const double written = static_cast<double>(spec.elems * spec.elem_bytes);
    const double written_back =
        static_cast<double>(both.steady_dram_bytes()) -
        static_cast<double>(fill_bytes);
    EXPECT_GT(written_back, 0.95 * written) << m.name;
    EXPECT_LT(written_back, 1.05 * written) << m.name;
  }
}

// ------------------------------------------------------------ set shards --
TEST(Replay, SetShardsSumToTheUnshardedReplay) {
  // Every hierarchy spills the 32 KiB sweep past its last level. With
  // mixed line sizes the shard bits sit above the 128-byte L3 line, two
  // bits above the 32-byte L1 line offset, and reach the top of the L1
  // set index at the limit. 24 reps exit early, and each shard
  // extrapolates on its own deltas.
  const std::vector<CacheConfig> lru{tiny_cache(1024, 2), tiny_cache(4096, 4),
                                     tiny_cache(16384, 8)};
  auto fifo = lru;
  for (auto& c : fifo) c.policy = ReplacementPolicy::FIFO;
  auto write_around = lru;
  write_around.front().write_allocate = false;
  const std::vector<CacheConfig> mixed{tiny_cache(1024, 2, 32),
                                       tiny_cache(4096, 4, 64),
                                       tiny_cache(16384, 8, 128)};
  const std::pair<std::string, std::vector<CacheConfig>> hierarchies[] = {
      {"mixed-lines", mixed},
      {"lru", lru},
      {"fifo", fifo},
      {"write-around", write_around}};
  for (const auto& [name, cfgs] : hierarchies) {
    const std::size_t limit = Hierarchy::shard_limit(cfgs);
    EXPECT_EQ(limit, name == "mixed-lines" ? 4u : 8u) << name;
    for (const auto p : kAllPatterns) {
      for (const int reps : {2, 24}) {
        const auto spec = small_spec(p, 2, 1 << 11);
        const auto whole = replay_stream(cfgs, spec, reps);
        for (std::size_t shards = 2; shards <= limit; shards *= 2) {
          const auto what = name + " " + std::string(core::to_string(p)) +
                            " reps=" + std::to_string(reps) +
                            " shards=" + std::to_string(shards);
          std::uint64_t accesses = 0;
          std::vector<CacheStats> stats(cfgs.size()), delta(cfgs.size());
          for (std::size_t k = 0; k < shards; ++k) {
            const auto part = replay_stream(cfgs, spec, reps, k, shards);
            accesses += part.accesses;
            for (std::size_t l = 0; l < cfgs.size(); ++l) {
              stats[l] += part.hierarchy.level(l).stats();
              delta[l] += part.steady_delta[l];
            }
          }
          EXPECT_EQ(accesses, whole.accesses) << what;
          for (std::size_t l = 0; l < cfgs.size(); ++l) {
            EXPECT_EQ(stats[l], whole.hierarchy.level(l).stats())
                << what << " level " << l;
            EXPECT_EQ(delta[l], whole.steady_delta[l])
                << what << " level " << l;
          }
        }
      }
    }
  }
}

TEST(Replay, RejectsShardCountsTheHierarchyCannotSplit) {
  const std::vector<CacheConfig> cfgs{tiny_cache(1024, 2),
                                      tiny_cache(4096, 4)};
  ASSERT_EQ(Hierarchy::shard_limit(cfgs), 8u);
  const auto spec = small_spec(AccessPattern::Streaming);
  EXPECT_THROW((void)replay_stream(cfgs, spec, 2, 0, 16),
               std::invalid_argument);
  EXPECT_THROW((void)replay_stream(cfgs, spec, 2, 0, 3),
               std::invalid_argument);
  EXPECT_THROW((void)replay_stream(cfgs, spec, 2, 4, 4),
               std::invalid_argument);
  EXPECT_NO_THROW((void)replay_stream(cfgs, spec, 2, 7, 8));
}

TEST(Replay, RejectsNonPositiveReps) {
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Streaming);
  EXPECT_THROW((void)replay(m, spec, 0), std::invalid_argument);
  EXPECT_THROW((void)check::replay_vector(hierarchy_configs(m), spec, 0),
               std::invalid_argument);
}

/// A field of /proc/self/status in KiB ("VmRSS:", "VmHWM:"), or -1
/// where the file or the field is missing.
long status_kib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stol(line.substr(field.size()));
  }
  return -1;
}

/// Restarts VmHWM from the current VmRSS; false where the kernel does
/// not support it.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

TEST(Replay, UntouchedCacheLineStateStaysFreeAcrossHierarchies) {
  // The SG2042's full 64 MiB L3 carries 17 MiB of line state, of which
  // a small sweep touches a few pages. That must hold for every
  // hierarchy, not only the first: once the allocator recycles the
  // memory a freed hierarchy gave back, calloc has to clear it and the
  // whole 17 MiB becomes resident. The validation oracle replays on
  // pool workers, so this runs on a thread of its own; the peak is what
  // counts, since the arrays are released before the replay returns.
  if (status_kib("VmRSS:") < 0 || !reset_peak_rss()) {
    GTEST_SKIP() << "no VmRSS/VmHWM in /proc/self/status";
  }
  const auto m = machine::sg2042();
  const auto spec = small_spec(AccessPattern::Streaming);
  std::vector<long> growth_kib;
  std::thread([&] {
    for (int i = 0; i < 3; ++i) {
      reset_peak_rss();
      const long before = status_kib("VmRSS:");
      (void)replay(m, spec, 2);
      growth_kib.push_back(status_kib("VmHWM:") - before);
    }
  }).join();
  // The first replay maps the blocks the later ones recycle.
  for (std::size_t i = 1; i < growth_kib.size(); ++i) {
    EXPECT_LT(growth_kib[i], 2048)
        << "full-L3 replay " << i << " raised the peak resident set by "
        << growth_kib[i] << " KiB";
  }
}

// --------------------------------------------------- writeback propagation --
TEST(Writeback, DirtyL1EvictionPropagatesToL2) {
  // Regression for the lost-writeback bug: a line made dirty by an L1
  // write *hit* (so L2's copy stayed clean) must re-dirty L2 when its
  // dirty L1 victim is written back, and later leave L2 as a writeback
  // counted in DRAM traffic. Pre-fix, the L1 writeback vanished: L2
  // saw no wb_hits, never re-dirtied, and dram_bytes undercounted the
  // write traffic.
  Hierarchy h({tiny_cache(1024), tiny_cache(8192, 4)});
  const Addr a = 0x0;  // L1 set 0, L2 set 0
  h.access(a, false);  // install clean in L1+L2
  h.access(a, true);   // L1 write hit: dirty in L1 only
  // Evict `a` from L1 (2-way set, 8 sets => stride 8*64).
  h.access(a + 1 * 8 * 64, false);
  h.access(a + 2 * 8 * 64, false);
  EXPECT_FALSE(h.level(0).probe(a));
  EXPECT_EQ(h.level(0).stats().writebacks, 1u);
  EXPECT_EQ(h.level(1).stats().wb_hits, 1u);  // absorbed and re-dirtied

  // Evict `a` from L2 (4-way set, 32 sets => stride 32*64); the
  // re-dirtied line must leave as an L2 writeback -> DRAM write bytes.
  const auto before_wb = h.level(1).stats().writebacks;
  for (int k = 1; k <= 4; ++k) h.access(a + k * 32 * 64, false);
  EXPECT_FALSE(h.level(1).probe(a));
  EXPECT_EQ(h.level(1).stats().writebacks, before_wb + 1);
  EXPECT_EQ(h.dram_bytes(),
            (h.level(1).stats().misses() + h.level(1).stats().writebacks +
             h.level(1).stats().wb_misses) *
                64);
}

TEST(Writeback, UnabsorbedWritebackCountsAsDramWrite) {
  // write_back_line on a cold cache: no allocation, a wb_miss, and the
  // hierarchy folds last-level wb misses into dram_bytes.
  Cache c(tiny_cache());
  EXPECT_FALSE(c.write_back_line(0x1000));
  EXPECT_EQ(c.stats().wb_misses, 1u);
  EXPECT_FALSE(c.probe(0x1000));
  EXPECT_EQ(c.resident_lines(), 0u);

  // In a hierarchy with L1-sized L2, both levels see the same install
  // sequence, so L2 evicts its copy of `a` during the same demand walk
  // that evicts it from L1 — the arriving writeback then misses.
  Hierarchy h({tiny_cache(1024), tiny_cache(1024)});
  const Addr a = 0x0;
  h.access(a, true);  // miss both, install, dirty L1
  // Sweep 16 fresh lines: evicts `a` everywhere; when `a` leaves L1
  // dirty, its writeback may find L2 already evicted it -> wb_miss.
  for (Addr x = 0x8000; x < 0x8000 + 64 * 64; x += 64) h.access(x, false);
  const auto& l2 = h.level(1).stats();
  EXPECT_EQ(l2.wb_hits + l2.wb_misses, 1u);  // exactly one wb arrived
  EXPECT_EQ(h.dram_bytes(),
            (l2.misses() + l2.writebacks + l2.wb_misses) * 64);
}

}  // namespace
}  // namespace sgp::cachesim
