// Tests for the crash-safe persistence layer (engine/persist.hpp) and
// the engine's checkpoint/resume path: segment format round-trips,
// corruption detection/quarantine, the I/O fault-plan grammar and
// injector, the flush retry policy, I/O fault injection, cold-vs-warm
// engine identity — including a simulated kill mid-flush — and a
// thread-safety hammer for concurrent flushes (run under
// -DSGP_SANITIZE=thread via the check_tsan target).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "check/fuzz.hpp"
#include "engine/cache.hpp"
#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/persist.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/retry.hpp"

namespace {

namespace fs = std::filesystem;
using namespace sgp;
using engine::CacheKey;
using engine::SegmentStatus;

/// Fresh scratch directory per test, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("sgp_persist_" + tag + "_" +
              std::to_string(static_cast<unsigned>(::getpid())))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

// `seed` varies the structured note fields so different entries carry
// different notes (it used to be free text, pre-NoteKind).
sim::TimeBreakdown breakdown(double base, const std::string& seed) {
  sim::TimeBreakdown tb;
  tb.compute_s = base;
  tb.memory_s = base * 2;
  tb.sync_s = base / 4;
  tb.atomic_s = 0.0;
  tb.total_s = tb.compute_s + tb.memory_s + tb.sync_s;
  tb.serving = sim::MemLevel::L2;
  tb.vector_path = true;
  tb.note = static_cast<compiler::NoteKind>(seed.size() % 6);
  tb.note_compiler = static_cast<core::CompilerId>(seed.size() % 2);
  tb.note_mode = static_cast<core::VectorMode>(seed.size() % 3);
  tb.note_rollback = !seed.empty();
  return tb;
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> out(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out[i] = static_cast<std::byte>(raw[i]);
  }
  return out;
}

void write_bytes(const std::string& path,
                 const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------- segment format --

TEST(Segment, EntriesRoundTripByteIdentically) {
  const std::vector<std::vector<std::byte>> payloads = {
      engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, "a")),
      engine::encode_cache_entry(CacheKey{4, 5, 6}, breakdown(0.25, "")),
      engine::encode_cache_entry(CacheKey{7, 8, 9},
                                 breakdown(1.0, "serving=DRAM path")),
  };
  const auto bytes = engine::build_segment(payloads);
  std::vector<std::vector<std::byte>> got;
  const auto parse = engine::parse_segment(
      bytes,
      [&](std::span<const std::byte> p) { got.emplace_back(p.begin(), p.end()); });
  EXPECT_EQ(parse.status, SegmentStatus::Ok);
  EXPECT_EQ(parse.entries, payloads.size());
  EXPECT_EQ(got, payloads);
}

TEST(Segment, EntryChecksumIsPinned) {
  // The frame checksum is 64-bit FNV-1a over the payload bytes, from
  // an offset basis with the published basis's last digit dropped
  // (1469598103934665603, not 14695981039346656037), so the published
  // vectors ("" -> 0xcbf29ce484222325, "a" -> 0xaf63dc4c8601ec8c) do
  // not apply. Every stored segment depends on these exact values: a
  // change to the hasher's byte path would quarantine them all.
  auto frame_checksum = [](const std::string& text) {
    std::vector<std::byte> payload(text.size());
    std::memcpy(payload.data(), text.data(), text.size());
    const auto bytes = engine::build_segment({payload});
    std::uint64_t sum = 0;
    std::memcpy(&sum, bytes.data() + bytes.size() - sizeof sum, sizeof sum);
    return sum;
  };
  EXPECT_EQ(frame_checksum(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(frame_checksum("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(frame_checksum("sg2042"), 0xc6a1e1650ace7909ull);
}

TEST(Segment, CacheEntryCodecPreservesEveryField) {
  const CacheKey key{0xdeadbeefull, 42, 7};
  const auto tb = breakdown(0.125, "vector path, spilled to L2");
  const auto decoded =
      engine::decode_cache_entry(engine::encode_cache_entry(key, tb));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, key);
  EXPECT_DOUBLE_EQ(decoded->second.compute_s, tb.compute_s);
  EXPECT_DOUBLE_EQ(decoded->second.memory_s, tb.memory_s);
  EXPECT_DOUBLE_EQ(decoded->second.sync_s, tb.sync_s);
  EXPECT_DOUBLE_EQ(decoded->second.atomic_s, tb.atomic_s);
  EXPECT_DOUBLE_EQ(decoded->second.total_s, tb.total_s);
  EXPECT_EQ(decoded->second.serving, tb.serving);
  EXPECT_EQ(decoded->second.vector_path, tb.vector_path);
  EXPECT_EQ(decoded->second.note, tb.note);
  EXPECT_EQ(decoded->second.note_compiler, tb.note_compiler);
  EXPECT_EQ(decoded->second.note_mode, tb.note_mode);
  EXPECT_EQ(decoded->second.note_rollback, tb.note_rollback);
}

TEST(Segment, EmptySegmentIsValid) {
  const auto bytes = engine::build_segment({});
  const auto parse =
      engine::parse_segment(bytes, [](std::span<const std::byte>) {});
  EXPECT_EQ(parse.status, SegmentStatus::Ok);
  EXPECT_EQ(parse.entries, 0u);
}

TEST(Segment, DetectsTruncationEvenAtAnEntryBoundary) {
  const std::vector<std::vector<std::byte>> payloads = {
      engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, "x")),
      engine::encode_cache_entry(CacheKey{2, 2, 2}, breakdown(0.5, "y")),
  };
  auto bytes = engine::build_segment(payloads);
  // Chop off exactly the last entry's frame: without the header entry
  // count this would verify as a one-entry segment.
  const auto one = engine::build_segment({payloads[0]});
  bytes.resize(one.size());
  std::size_t delivered = 0;
  const auto parse = engine::parse_segment(
      bytes, [&](std::span<const std::byte>) { ++delivered; });
  EXPECT_EQ(parse.status, SegmentStatus::Corrupt);
  EXPECT_EQ(delivered, 0u);  // the segment is the atomic recovery unit
}

TEST(Segment, DetectsSingleBitFlipAnywhere) {
  const std::vector<std::vector<std::byte>> payloads = {
      engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, "zz")),
  };
  const auto clean = engine::build_segment(payloads);
  for (std::size_t bit = 0; bit < clean.size() * 8; bit += 7) {
    auto bytes = clean;
    bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    std::size_t delivered = 0;
    const auto parse = engine::parse_segment(
        bytes, [&](std::span<const std::byte>) { ++delivered; });
    EXPECT_NE(parse.status, SegmentStatus::Ok) << "bit " << bit;
    EXPECT_EQ(delivered, 0u) << "bit " << bit;
  }
}

TEST(Segment, RefusesUnknownVersions) {
  auto bytes = engine::build_segment({});
  bytes[8] = static_cast<std::byte>(engine::kSegmentVersion + 1);
  const auto parse =
      engine::parse_segment(bytes, [](std::span<const std::byte>) {});
  EXPECT_EQ(parse.status, SegmentStatus::BadVersion);
}

// ---------------------------------------------------- file loader --

TEST(SegmentFile, QuarantinesCorruptFilesAndRefusesNewVersionsInPlace) {
  const TempDir dir("loader");
  const std::string corrupt = dir.file("corrupt.sgpc");
  auto bytes = engine::build_segment(
      {engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, ""))});
  bytes.back() ^= static_cast<std::byte>(1);
  write_bytes(corrupt, bytes);
  auto parse = engine::load_segment_file(
      corrupt, [](std::span<const std::byte>) {}, nullptr, false);
  EXPECT_EQ(parse.status, SegmentStatus::Corrupt);
  EXPECT_FALSE(fs::exists(corrupt));
  EXPECT_TRUE(fs::exists(corrupt + ".quarantine"));

  // An unknown version must be refused but never moved or destroyed: a
  // newer tool's data survives being scanned by an older binary.
  const std::string newer = dir.file("newer.sgpc");
  auto vbytes = engine::build_segment({});
  vbytes[8] = static_cast<std::byte>(engine::kSegmentVersion + 9);
  write_bytes(newer, vbytes);
  parse = engine::load_segment_file(
      newer, [](std::span<const std::byte>) {}, nullptr, false);
  EXPECT_EQ(parse.status, SegmentStatus::BadVersion);
  EXPECT_TRUE(fs::exists(newer));
  EXPECT_FALSE(fs::exists(newer + ".quarantine"));
}

TEST(SegmentFile, InjectedBitFlipIsCaughtOnRead) {
  const TempDir dir("bitflip");
  const std::string path = dir.file("seg.sgpc");
  ASSERT_TRUE(engine::write_segment_file(
      path,
      {engine::encode_cache_entry(CacheKey{9, 9, 9}, breakdown(0.5, "n"))},
      nullptr, false));

  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.read:bitflip:1");
  resilience::FaultInjector injector(plan, 7u);
  const auto parse = engine::load_segment_file(
      path, [](std::span<const std::byte>) {}, &injector, false);
  EXPECT_NE(parse.status, SegmentStatus::Ok);
  // The on-disk file was fine; only the in-memory read was damaged —
  // but quarantine is still correct behaviour (fail-safe, re-computable).
  EXPECT_TRUE(fs::exists(path + ".quarantine"));
}

TEST(SegmentFile, TornWriteReportsSuccessButFailsVerification) {
  const TempDir dir("torn");
  const std::string path = dir.file("seg.sgpc");
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.write:torn:1");
  resilience::FaultInjector injector(plan, 11u);
  // A torn write models a crash after rename: the writer cannot see it.
  ASSERT_TRUE(engine::write_segment_file(
      path,
      {engine::encode_cache_entry(CacheKey{1, 2, 3}, breakdown(0.5, "t"))},
      &injector, false));
  const auto parse = engine::load_segment_file(
      path, [](std::span<const std::byte>) {}, nullptr, false);
  EXPECT_NE(parse.status, SegmentStatus::Ok);
}

TEST(SegmentFile, DetectedWriteFaultsFailTheWrite) {
  const TempDir dir("enospc");
  for (const char* spec :
       {"persist.write:enospc:1", "persist.rename:renamefail:1"}) {
    const std::string path = dir.file("seg.sgpc");
    resilience::FaultPlan plan = resilience::FaultPlan::parse(spec);
    resilience::FaultInjector injector(plan, 3u);
    EXPECT_FALSE(engine::write_segment_file(
        path,
        {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))},
        &injector, false))
        << spec;
    EXPECT_FALSE(fs::exists(path)) << spec;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << spec;  // no debris
  }
}

// ------------------------------------------ fault plans and retries --

using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::RetryPolicy;

TEST(FaultPlan, ParsesSitesKindsBudgetsAndProbability) {
  const auto plan = FaultPlan::parse(
      "persist.write:torn,persist.read:bitflip:1,"
      "persist.rename:renamefail@0.5,persist.write:enospc@0.25:2");
  ASSERT_EQ(plan.specs().size(), 4u);
  EXPECT_EQ(plan.specs()[0].site, "persist.write");
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::TornWrite);
  EXPECT_EQ(plan.specs()[0].max_triggers, -1);
  EXPECT_DOUBLE_EQ(plan.specs()[0].probability, 1.0);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::BitFlipRead);
  EXPECT_EQ(plan.specs()[1].max_triggers, 1);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::RenameFail);
  EXPECT_DOUBLE_EQ(plan.specs()[2].probability, 0.5);
  EXPECT_EQ(plan.specs()[3].kind, FaultKind::NoSpace);
  EXPECT_DOUBLE_EQ(plan.specs()[3].probability, 0.25);
  EXPECT_EQ(plan.specs()[3].max_triggers, 2);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad :
       {"persist.write", "persist.write:explode", "persist.write:throw",
        "persist.write:delay:5", "persist.write:torn:0", ":torn",
        "persist.write:torn@1.5", "persist.write:torn@0",
        "persist.write:torn:1:2", "persist.write:torn:x"}) {
    EXPECT_THROW((void)FaultPlan::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultInjector, ConsumesTriggerBudget) {
  FaultInjector inj(FaultPlan::parse("persist.write:enospc:2"));
  EXPECT_EQ(inj.arm("persist.write").kind, FaultKind::NoSpace);
  EXPECT_EQ(inj.arm("persist.write").kind, FaultKind::NoSpace);
  EXPECT_EQ(inj.arm("persist.write").kind, FaultKind::None);
  EXPECT_EQ(inj.arm("persist.read").kind, FaultKind::None);
  EXPECT_EQ(inj.armed_count("persist.write"), 2);
}

TEST(FaultInjector, WildcardMatchesEverySite) {
  FaultInjector inj(FaultPlan::parse("*:bitflip"));
  EXPECT_EQ(inj.arm("persist.read").kind, FaultKind::BitFlipRead);
  EXPECT_EQ(inj.arm("persist.write").kind, FaultKind::BitFlipRead);
  EXPECT_EQ(inj.arm("persist.rename").kind, FaultKind::BitFlipRead);
}

TEST(FaultInjector, ProbabilisticFaultsAreSeedDeterministic) {
  auto draws = [](std::uint64_t seed) {
    FaultInjector inj(FaultPlan::parse("persist.write:enospc@0.5"), seed);
    std::string out;
    for (int i = 0; i < 32; ++i) {
      out += inj.arm("persist.write").kind == FaultKind::NoSpace ? '1' : '0';
    }
    return out;
  };
  EXPECT_EQ(draws(1), draws(1));  // reproducible
  EXPECT_NE(draws(1), std::string(32, '1'));  // actually probabilistic
  EXPECT_NE(draws(1), std::string(32, '0'));
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy r;
  r.max_attempts = 5;
  r.backoff_initial_ms = 10.0;
  r.backoff_multiplier = 2.0;
  r.backoff_max_ms = 35.0;
  EXPECT_DOUBLE_EQ(r.backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(3), 35.0);  // capped from 40
  EXPECT_DOUBLE_EQ(r.backoff_ms(0), 0.0);
  RetryPolicy off;  // max_attempts == 1: never pauses
  EXPECT_DOUBLE_EQ(off.backoff_ms(1), 0.0);
}

TEST(RetryPolicy, ValidateRejectsNonsense) {
  RetryPolicy r;
  r.max_attempts = 0;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.backoff_multiplier = 0.5;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.backoff_initial_ms = -1.0;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.jitter = -0.1;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.jitter = 1.0;  // the factor could hit 2x-and-beyond; refuse
  EXPECT_THROW(r.validate(), std::invalid_argument);
}

TEST(RetryPolicy, JitterIsSeedDeterministicAndBounded) {
  RetryPolicy r;
  r.max_attempts = 6;
  r.backoff_initial_ms = 10.0;
  r.backoff_multiplier = 2.0;
  r.backoff_max_ms = 1000.0;
  r.jitter = 0.5;

  bool any_jittered = false;
  for (int k = 1; k <= 5; ++k) {
    const double exact = std::min(10.0 * std::pow(2.0, k - 1), 1000.0);
    const double d = r.backoff_ms(k);
    // Deterministic: same policy + seed + retry index => same delay.
    EXPECT_DOUBLE_EQ(d, RetryPolicy{r}.backoff_ms(k));
    // Bounded: within +-jitter of the exponential schedule and the cap.
    EXPECT_GE(d, exact * (1.0 - r.jitter));
    EXPECT_LT(d, exact * (1.0 + r.jitter));
    EXPECT_LE(d, r.backoff_max_ms);
    if (d != exact) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);  // jitter actually perturbs the schedule

  // A different seed spreads differently (the fleet-desync property).
  RetryPolicy other = r;
  other.jitter_seed = r.jitter_seed + 1;
  bool any_differs = false;
  for (int k = 1; k <= 5; ++k) {
    if (other.backoff_ms(k) != r.backoff_ms(k)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(RetryPolicy, ZeroJitterKeepsTheExactSchedule) {
  RetryPolicy r;
  r.max_attempts = 4;
  r.backoff_initial_ms = 10.0;
  r.backoff_multiplier = 2.0;
  r.backoff_max_ms = 35.0;
  r.jitter = 0.0;  // the default: byte-compatible with the old policy
  EXPECT_DOUBLE_EQ(r.backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(3), 35.0);
}

// -------------------------------------------------------- the store --

TEST(PersistentStore, AppendLoadRoundTripAcrossSegments) {
  const TempDir dir("store");
  const auto p1 =
      engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, "one"));
  const auto p2 =
      engine::encode_cache_entry(CacheKey{2, 2, 2}, breakdown(0.25, "two"));
  {
    engine::PersistentStore store({dir.str(), nullptr, {}, false});
    EXPECT_TRUE(store.append({p1}));
    EXPECT_TRUE(store.append({p2}));
    EXPECT_EQ(store.stats().flushes, 2u);
    EXPECT_EQ(store.stats().entries_flushed, 2u);
  }
  engine::PersistentStore store({dir.str(), nullptr, {}, false});
  std::vector<std::vector<std::byte>> got;
  store.load([&](std::span<const std::byte> p) {
    got.emplace_back(p.begin(), p.end());
  });
  ASSERT_EQ(got.size(), 2u);  // segment-name order == append order
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(store.stats().segments_loaded, 2u);
  EXPECT_EQ(store.stats().entries_loaded, 2u);
}

TEST(PersistentStore, CleansTmpDebrisAndContinuesTheSequence) {
  const TempDir dir("debris");
  {
    engine::PersistentStore store({dir.str(), nullptr, {}, false});
    ASSERT_TRUE(store.append(
        {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))}));
  }
  // Crash debris: a half-written temp file next to the real segment.
  write_bytes(dir.file("seg-000002.sgpc.tmp"),
              std::vector<std::byte>(10, std::byte{0xab}));
  engine::PersistentStore store({dir.str(), nullptr, {}, false});
  EXPECT_FALSE(fs::exists(dir.file("seg-000002.sgpc.tmp")));
  ASSERT_TRUE(store.append(
      {engine::encode_cache_entry(CacheKey{2, 2, 2}, breakdown(0.5, ""))}));
  // The new segment continued after the highest existing sequence.
  EXPECT_TRUE(fs::exists(dir.file("seg-000002.sgpc")));
}

TEST(PersistentStore, RetriesFailedAppendsUnderTheJitteredPolicy) {
  const TempDir dir("retry");
  // Two write faults, three attempts allowed: the third succeeds.
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.write:enospc:2");
  resilience::FaultInjector injector(plan, 5u);
  engine::PersistOptions opt{dir.str(), &injector, {}, false};
  opt.retry.max_attempts = 3;
  opt.retry.backoff_initial_ms = 0.01;  // keep the test fast
  opt.retry.backoff_max_ms = 0.05;
  engine::PersistentStore store(opt);
  EXPECT_TRUE(store.append(
      {engine::encode_cache_entry(CacheKey{1, 1, 1}, breakdown(0.5, ""))}));
  EXPECT_EQ(store.stats().flush_failures, 2u);
  EXPECT_EQ(store.stats().flushes, 1u);
}

// ------------------------------------------------ engine round trip --

engine::EngineOptions persistent_options(const std::string& dir,
                                         std::size_t flush_min = 4) {
  engine::EnginePersistence p;
  p.store.dir = dir;
  p.store.warn = false;
  p.flush_min_entries = flush_min;
  return engine::EngineOptions{.persist = p};
}

/// A small deterministic sweep: every kernel signature on one machine
/// at one thread count (one batch, so one flush trigger).
std::vector<sim::TimeBreakdown> sweep_at(engine::SweepEngine& eng,
                                         int nthreads) {
  const auto m = machine::sg2042();
  const auto sigs = kernels::all_signatures();
  sim::SimConfig c;
  c.nthreads = nthreads;
  return eng.run_grid(m, sigs, {&c, 1});
}

/// Two batches back to back: with a small flush_min_entries this
/// produces (at least) two segments, one per batch end.
std::vector<sim::TimeBreakdown> small_sweep(engine::SweepEngine& eng) {
  auto out = sweep_at(eng, 1);
  auto more = sweep_at(eng, 4);
  out.insert(out.end(), more.begin(), more.end());
  return out;
}

TEST(EnginePersist, WarmEngineReplaysWithoutSimulating) {
  const TempDir dir("engine");
  std::vector<sim::TimeBreakdown> cold_out;
  std::uint64_t cold_sims = 0;
  {
    engine::SweepEngine eng(persistent_options(dir.str()));
    cold_out = small_sweep(eng);
    cold_sims = eng.counters().simulations;
    EXPECT_GT(cold_sims, 0u);
  }  // destructor flushes
  for (const auto& e : fs::directory_iterator(dir.str())) {  // segments only
    const auto name = e.path().filename().string();
    EXPECT_TRUE(name.starts_with("seg-") && name.ends_with(".sgpc")) << name;
  }
  engine::SweepEngine warm(persistent_options(dir.str()));
  const auto warm_out = small_sweep(warm);
  const auto c = warm.counters();
  EXPECT_EQ(c.simulations, 0u);  // pure replay
  EXPECT_EQ(c.persist.cache.resumed_points, cold_sims);
  ASSERT_EQ(warm_out.size(), cold_out.size());
  for (std::size_t i = 0; i < cold_out.size(); ++i) {
    EXPECT_DOUBLE_EQ(warm_out[i].total_s, cold_out[i].total_s) << i;
    EXPECT_EQ(warm_out[i].note, cold_out[i].note) << i;
    EXPECT_EQ(warm_out[i].note_compiler, cold_out[i].note_compiler) << i;
    EXPECT_EQ(warm_out[i].note_mode, cold_out[i].note_mode) << i;
    EXPECT_EQ(warm_out[i].note_rollback, cold_out[i].note_rollback) << i;
    EXPECT_EQ(warm_out[i].serving, cold_out[i].serving) << i;
  }
}

TEST(EnginePersist, KilledMidFlushResumesByteIdentically) {
  const TempDir ref_dir("killref");

  // Reference: one uninterrupted run.
  std::vector<sim::TimeBreakdown> reference;
  {
    engine::SweepEngine eng(persistent_options(ref_dir.str()));
    reference = small_sweep(eng);
  }

  // Two kinds of damage to a finished store: a kill mid-flush, modelled
  // by tearing the tail segment to a torn length (header + half an
  // entry), and one bit flipped in the first segment the resumed
  // engine reads.
  for (const bool torn : {true, false}) {
    const std::string kind = torn ? "torn tail" : "read bitflip";
    const TempDir dir(torn ? "kill" : "bitflip");
    {
      engine::SweepEngine eng(persistent_options(dir.str()));
      small_sweep(eng);
    }
    auto opts = persistent_options(dir.str());
    resilience::FaultInjector injector(
        resilience::FaultPlan::parse("persist.read:bitflip:1"), 99u);
    std::string last;
    if (torn) {
      for (const auto& e : fs::directory_iterator(dir.str())) {
        const auto name = e.path().filename().string();
        if (name.rfind("seg-", 0) == 0 && name > last) last = name;
      }
      ASSERT_FALSE(last.empty());
      auto bytes = read_bytes(dir.file(last));
      ASSERT_GT(bytes.size(), engine::kSegmentHeaderSize + 6);
      bytes.resize(engine::kSegmentHeaderSize + 6);
      write_bytes(dir.file(last), bytes);
    } else {
      opts.persist->store.injector = &injector;
    }

    // Resume: the damaged segment is quarantined, its points recomputed,
    // and the sweep output is byte-identical to the uninterrupted run.
    engine::SweepEngine resumed(opts);
    const auto out = small_sweep(resumed);
    const auto c = resumed.counters();
    EXPECT_EQ(c.persist.store.quarantined_segments, 1u) << kind;
    if (torn) {
      EXPECT_TRUE(fs::exists(dir.file(last + ".quarantine")));
    }
    // The lost points were recomputed and the rest replayed.
    EXPECT_GT(c.simulations, 0u) << kind;
    EXPECT_GT(c.persist.cache.resumed_points, 0u) << kind;
    ASSERT_EQ(out.size(), reference.size()) << kind;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].total_s, reference[i].total_s) << kind << ' ' << i;
      EXPECT_EQ(out[i].compute_s, reference[i].compute_s) << kind << ' ' << i;
      EXPECT_EQ(out[i].note, reference[i].note) << kind << ' ' << i;
      EXPECT_EQ(out[i].note_rollback, reference[i].note_rollback)
          << kind << ' ' << i;
    }
  }
}

TEST(EnginePersist, FlushFailuresKeepEntriesQueuedUntilTheFaultClears) {
  const TempDir dir("queue");
  // Budget 3: each of small_sweep's two batch-end flushes burns one
  // fault, the explicit flush below burns the third; after that the
  // "disk" has recovered.
  resilience::FaultPlan plan =
      resilience::FaultPlan::parse("persist.write:enospc:3");
  resilience::FaultInjector injector(plan, 13u);
  engine::EnginePersistence p;
  p.store.dir = dir.str();
  p.store.injector = &injector;
  p.store.warn = false;
  p.store.retry.max_attempts = 1;  // no in-call retries: fail fast
  p.flush_min_entries = 1;
  engine::SweepEngine eng(engine::EngineOptions{.persist = p});
  small_sweep(eng);
  EXPECT_FALSE(eng.flush_persistent());
  const auto before = eng.counters();
  EXPECT_GT(before.persist.pending_entries, 0u);
  EXPECT_GT(before.persist.store.flush_failures, 0u);
  // The disk "recovers" (fault budget exhausted): everything drains.
  EXPECT_TRUE(eng.flush_persistent());
  EXPECT_EQ(eng.counters().persist.pending_entries, 0u);
}

TEST(EnginePersist, UndecodablePayloadIsCountedApartFromCorruption) {
  const TempDir dir("undecodable");
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  const sim::SimConfig cfg;
  const CacheKey key{engine::machine_fingerprint(m),
                     engine::signature_fingerprint(sig),
                     engine::config_fingerprint(cfg)};
  // One valid entry and one short payload: both frames verify, so the
  // segment loads, but the second payload is no cache entry.
  write_bytes(dir.file("seg-000001.sgpc"),
              engine::build_segment(
                  {engine::encode_cache_entry(key,
                                              sim::Simulator(m).run(sig, cfg)),
                   std::vector<std::byte>(5, std::byte{0x5a})}));
  obs::Counter& undecodable =
      obs::registry().counter("persist.undecodable_entries");
  obs::Counter& corrupt = obs::registry().counter("persist.corrupt_entries");
  const auto undecodable_before = undecodable.value();
  const auto corrupt_before = corrupt.value();

  engine::SweepEngine eng(persistent_options(dir.str()));
  const engine::SweepPoint point{&m, &sig, cfg};
  (void)eng.run_batch({&point, 1});
  const auto c = eng.counters();
  EXPECT_EQ(c.persist.undecodable_entries, 1u);
  EXPECT_EQ(undecodable.value(), undecodable_before + 1);
  EXPECT_EQ(corrupt.value(), corrupt_before);
  EXPECT_EQ(c.persist.store.quarantined_segments, 0u);
  EXPECT_EQ(c.simulations, 0u);  // the valid entry replayed
}

TEST(EnginePersist, KeyAskedTwiceInOneBatchIsStoredQueuedAndFlushedOnce) {
  const TempDir dir("twice");
  const auto m = machine::sg2042();
  const auto sig = kernels::all_signatures().front();
  const engine::SweepPoint point{&m, &sig, sim::SimConfig{}};
  const std::vector<engine::SweepPoint> batch{point, point};

  engine::SweepEngine eng(persistent_options(dir.str(), 64));
  const auto out = eng.run_batch(batch);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].total_s, out[1].total_s);
  const auto c = eng.counters();
  EXPECT_EQ(c.simulations, 2u);  // both misses are priced
  EXPECT_EQ(c.cache_entries, 1u);
  EXPECT_EQ(c.persist.pending_entries, 1u);

  ASSERT_TRUE(eng.flush_persistent());
  EXPECT_EQ(eng.counters().persist.store.entries_flushed, 1u);
  std::uint64_t entries = 0;
  const auto parse = engine::load_segment_file(
      dir.file("seg-000001.sgpc"),
      [&](std::span<const std::byte> payload) {
        const auto entry = engine::decode_cache_entry(payload);
        ASSERT_TRUE(entry.has_value());
        EXPECT_EQ(entry->second.total_s, out[0].total_s);
        ++entries;
      },
      nullptr, false);
  EXPECT_EQ(parse.status, SegmentStatus::Ok);
  EXPECT_EQ(entries, 1u);
}

TEST(EnginePersist, GroupsAreQueuedInFirstAppearanceOrder) {
  // Repeated and interleaved (machine, signature) pairs: groups are
  // priced in order of first appearance, each group's points in batch
  // order, and a repeated key is queued once. The flushed segment shows
  // the queue's order.
  const TempDir dir("order");
  const auto sg = machine::sg2042();
  const auto rome = machine::amd_rome();
  const auto& sigs = kernels::all_signatures();
  const auto& a = sigs[0];
  auto b = sigs[1];  // a copy, hashed rather than read from the table
  sim::SimConfig c1;
  c1.nthreads = 1;
  sim::SimConfig c2;
  c2.nthreads = 4;
  const std::vector<engine::SweepPoint> batch{
      {&sg, &b, c1},  {&rome, &a, c1}, {&sg, &a, c1}, {&sg, &b, c2},
      {&rome, &a, c2}, {&sg, &b, c1},  {&sg, &a, c2}};
  const auto key = [](const engine::SweepPoint& p) {
    return CacheKey{engine::machine_fingerprint(*p.machine),
                    engine::signature_fingerprint(*p.signature),
                    engine::config_fingerprint(p.config)};
  };
  // Groups (sg, b), (rome, a), (sg, a); batch[5] repeats batch[0].
  const std::vector<CacheKey> expected{key(batch[0]), key(batch[3]),
                                       key(batch[1]), key(batch[4]),
                                       key(batch[2]), key(batch[6])};

  engine::SweepEngine eng(persistent_options(dir.str(), 64));
  const auto out = eng.run_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  EXPECT_EQ(eng.counters().simulations, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const sim::Simulator scalar(*batch[i].machine);
    EXPECT_EQ(out[i].total_s,
              scalar.run(*batch[i].signature, batch[i].config).total_s)
        << i;
  }
  ASSERT_TRUE(eng.flush_persistent());
  std::vector<CacheKey> queued;
  const auto parse = engine::load_segment_file(
      dir.file("seg-000001.sgpc"),
      [&](std::span<const std::byte> payload) {
        const auto entry = engine::decode_cache_entry(payload);
        ASSERT_TRUE(entry.has_value());
        queued.push_back(entry->first);
      },
      nullptr, false);
  EXPECT_EQ(parse.status, SegmentStatus::Ok);
  EXPECT_EQ(queued, expected);
}

// ------------------------------------------------- thread safety --
// Aimed at -DSGP_SANITIZE=thread (the check_tsan target): explicit
// flushes, batch-end flushes, stats readers and clear_cache() race on
// one engine; they take turns on its mutex and TSan must stay quiet.

TEST(EnginePersist, ConcurrentFlushesRaceBatchesStatsAndClearCleanly) {
  const TempDir dir("race");
  engine::EnginePersistence p;
  p.store.dir = dir.str();
  p.store.warn = false;
  p.flush_min_entries = 8;
  engine::SweepEngine eng(engine::EngineOptions{.persist = p});

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)eng.counters();
      std::this_thread::yield();
    }
  });
  std::thread flusher([&] {
    while (!stop.load()) {
      eng.flush_persistent();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 6; ++round) {
    small_sweep(eng);
    if (round == 3) eng.clear_cache();
  }
  stop.store(true);
  reader.join();
  flusher.join();
  EXPECT_TRUE(eng.flush_persistent());
}

// ------------------------------------------------- fuzz the parser --

TEST(SegmentFuzz, LoaderSurvivesAndClassifiesDeterministically) {
  const TempDir dir("fuzz");
  const auto report = check::fuzz_segments(100, 64, dir.str(), 2);
  EXPECT_GT(report.points, 0u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

}  // namespace
