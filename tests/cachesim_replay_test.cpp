// Tests for the streaming replay engine (src/cachesim/replay.hpp): the
// TraceCursor as the canonical trace order, exactness of line-run
// coalescing and of the arena-decoded batch path against the
// per-access path, steady-state early exit (Gather included), and the
// writeback-propagation fix in Hierarchy.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/arena.hpp"
#include "cachesim/replay.hpp"
#include "cachesim/trace.hpp"
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

// --------------------------------------------------- decode/batch path --
TEST(DecodeSweep, AccountsEveryAccessOnEveryPattern) {
  for (const auto p : kAllPatterns) {
    // Odd element counts stress the split/fusion bookkeeping (Gather's
    // index+data interleave included).
    for (const std::size_t elems : {std::size_t{1} << 10,
                                    (std::size_t{1} << 10) - 3}) {
      const auto spec = small_spec(p, 2, elems);
      TraceCursor cursor(spec);
      DecodedSweep dec;
      decode_sweep(spec, 64, dec);
      EXPECT_EQ(dec.accesses, cursor.total_accesses())
          << core::to_string(p) << " elems " << elems;
      std::uint64_t in_segments = 0;
      for (std::size_t i = 0; i < dec.segments.size(); ++i) {
        const auto& s = dec.segments[i];
        EXPECT_GE(std::uint64_t{s.reads} + s.writes, 1u) << "segment " << i;
        // Adjacent segments on the same line must not both be fusable
        // (otherwise the decoder left a merge on the table or, worse,
        // would have had to reorder to merge them).
        if (i > 0) {
          const auto& p = dec.segments[i - 1];
          if (((p.addr ^ s.addr) & ~Addr{63}) == 0) {
            EXPECT_TRUE(p.writes > 0 && s.reads > 0)
                << "unfused same-line neighbours at " << i;
          }
        }
        in_segments += std::uint64_t{s.reads} + s.writes;
      }
      EXPECT_EQ(in_segments, dec.accesses) << core::to_string(p);
    }
  }
}

TEST(DecodeSweep, FusesReadModifyWriteButNeverWriteThenRead) {
  // Sequential is a per-element read-then-write on the same address:
  // each element must fuse to ONE rmw segment, and the next element's
  // read must not fuse back into it (write-then-read reorders).
  SweepSpec spec = small_spec(AccessPattern::Sequential, 1, 64);
  DecodedSweep dec;
  decode_sweep(spec, 64, dec);
  ASSERT_FALSE(dec.segments.empty());
  for (std::size_t i = 0; i < dec.segments.size(); ++i) {
    const auto& s = dec.segments[i];
    EXPECT_GT(s.reads, 0u) << "segment " << i;
    EXPECT_GT(s.writes, 0u) << "segment " << i;
  }
  EXPECT_EQ(dec.accesses, 2u * 64u);
}

void batch_identity_trial(std::vector<CacheConfig> cfgs,
                          const std::string& what) {
  Hierarchy by_batch(cfgs);
  Hierarchy by_access(cfgs);
  std::mt19937 rng(1234);
  std::uniform_int_distribution<Addr> line_pick(0, 255);
  std::uniform_int_distribution<std::uint32_t> count(0, 5);
  std::uniform_int_distribution<std::size_t> batch_len(1, 16);

  std::vector<LineSegment> batch;
  for (int t = 0; t < 200; ++t) {
    batch.clear();
    const std::size_t len = batch_len(rng);
    for (std::size_t i = 0; i < len; ++i) {
      LineSegment s;
      s.addr = line_pick(rng) * 64 + (t % 64);
      s.reads = count(rng);
      s.writes = count(rng);
      if (s.reads + s.writes == 0) s.reads = 1;
      batch.push_back(s);
    }
    by_batch.access_batch(batch);
    for (const auto& s : batch) {
      for (std::uint32_t k = 0; k < s.reads; ++k) {
        by_access.access(s.addr, false);
      }
      for (std::uint32_t k = 0; k < s.writes; ++k) {
        by_access.access(s.addr, true);
      }
    }
    expect_same_stats(by_batch, by_access, what);
  }
}

TEST(AccessBatch, BitIdenticalToPerAccessLru) {
  batch_identity_trial({tiny_cache(1024), tiny_cache(8192, 4)},
                       "batch-lru");
}

TEST(AccessBatch, BitIdenticalToPerAccessFifo) {
  auto l1 = tiny_cache(1024);
  l1.policy = ReplacementPolicy::FIFO;
  auto l2 = tiny_cache(8192, 4);
  l2.policy = ReplacementPolicy::FIFO;
  batch_identity_trial({l1, l2}, "batch-fifo");
}

TEST(AccessBatch, BitIdenticalToPerAccessWriteAround) {
  // A pure-write segment missing a write-around L1 must fall through
  // at full multiplicity; an rmw segment's read part allocates, so its
  // writes all hit even without write-allocate.
  auto l1 = tiny_cache(1024);
  l1.write_allocate = false;
  batch_identity_trial({l1, tiny_cache(8192, 4)}, "batch-write-around");
}

TEST(AccessBatch, SingleLevelHierarchy) {
  batch_identity_trial({tiny_cache(1024)}, "batch-single-level");
}

TEST(ReplayArena, CachesDecodesAcrossReplaysAndSpecs) {
  ReplayArena arena;
  const auto specA = small_spec(AccessPattern::Gather, 2, 1 << 9);
  const auto specB = small_spec(AccessPattern::Streaming, 2, 1 << 9);
  const auto& a1 = arena.decoded(specA, 64);
  const auto a1_accesses = a1.accesses;
  const auto& b1 = arena.decoded(specB, 64);
  (void)b1;
  // Re-requesting A must serve the cached slot, not re-decode.
  const auto& a2 = arena.decoded(specA, 64);
  EXPECT_EQ(&a1, &a2);
  EXPECT_EQ(a2.accesses, a1_accesses);
  // Same spec at a different line size is a different decode.
  const auto& a3 = arena.decoded(specA, 128);
  EXPECT_NE(&a2, &a3);

  // Replays through an explicit arena match the thread-default path.
  const auto m = machine::visionfive_v2();
  ReplayOptions with_arena;
  with_arena.arena = &arena;
  const auto r1 = replay_stream(m, specA, 4, with_arena);
  const auto r2 = replay_stream(m, specA, 4);
  EXPECT_EQ(r1.steady_miss_rate, r2.steady_miss_rate);
  expect_same_stats(r1.hierarchy, r2.hierarchy, "arena-reuse");
}

// ------------------------------------------------- stream/vector replay --
TEST(Replay, StreamMatchesVectorOnEveryPattern) {
  const auto m = machine::sg2042();
  for (const auto p : kAllPatterns) {
    const auto spec = small_spec(p, 2, 1 << 12);
    const auto vec = replay_vector(m, spec, 5);
    const auto str = replay_stream(m, spec, 5);
    EXPECT_EQ(vec.accesses, str.accesses) << core::to_string(p);
    EXPECT_EQ(vec.steady_miss_rate, str.steady_miss_rate)
        << core::to_string(p);
    expect_same_stats(vec.hierarchy, str.hierarchy,
                      std::string(core::to_string(p)));
  }
}

TEST(Replay, EarlyExitExtrapolationIsExact) {
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Streaming, 2, 1 << 12);
  ReplayOptions full;
  full.early_exit = false;
  const auto exact = replay_stream(m, spec, 24, full);
  const auto fast = replay_stream(m, spec, 24);
  EXPECT_EQ(exact.accesses, fast.accesses);
  EXPECT_EQ(exact.steady_miss_rate, fast.steady_miss_rate);
  expect_same_stats(exact.hierarchy, fast.hierarchy, "early-exit");
  // The fast path really did skip simulation work: its telemetry counts
  // only the reps it executed before extrapolating.
  EXPECT_LT(fast.hierarchy.telemetry().accesses,
            exact.hierarchy.telemetry().accesses);
}

TEST(Replay, EarlyExitReportsSkippedRepsToObs) {
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Streaming, 2, 1 << 10);
  const auto before = counter_value("cachesim.reps_skipped");
  (void)replay_stream(m, spec, 10);
  const auto after = counter_value("cachesim.reps_skipped");
  EXPECT_GT(after, before);
}

TEST(Replay, GatherExtrapolationIsExact) {
  // Gather used to be excluded from early exit; with the arena-decoded
  // buffer every rep replays the identical gathered stream, so the
  // periodicity argument applies to it like any other pattern. The
  // fast path must still be bit-identical to the full simulation.
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Gather, 2, 1 << 10);
  ReplayOptions full;
  full.early_exit = false;
  const auto exact = replay_stream(m, spec, 8, full);
  const auto fast = replay_stream(m, spec, 8);
  EXPECT_EQ(exact.accesses, fast.accesses);
  EXPECT_EQ(exact.steady_miss_rate, fast.steady_miss_rate);
  expect_same_stats(exact.hierarchy, fast.hierarchy, "gather-early-exit");
  TraceCursor cursor(spec);
  EXPECT_EQ(fast.accesses, 8 * cursor.total_accesses());
}

TEST(Replay, RejectsNonPositiveReps) {
  const auto m = machine::visionfive_v2();
  const auto spec = small_spec(AccessPattern::Streaming);
  EXPECT_THROW((void)replay_stream(m, spec, 0), std::invalid_argument);
  EXPECT_THROW((void)replay_vector(m, spec, 0), std::invalid_argument);
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
      (void)replay_stream(m, spec, 2);
      growth_kib.push_back(status_kib("VmHWM:") - before);
    }
  }).join();
  // The first replay also sizes the thread's decode arena.
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
