#include "check/fuzz.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>

#include "cachesim/replay.hpp"
#include "engine/engine.hpp"
#include "engine/persist.hpp"
#include "kernels/register_all.hpp"
#include "machine/placement.hpp"
#include "machine/registry.hpp"
#include "machine/serialize.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace sgp::check {

namespace {

/// Bookkeeping for one invariant on one subject: points and violations
/// land in the shard's report and in the check.<invariant>.points and
/// .violations counters; each violation names `subject` and `kernel`
/// (a fuzz seed, a sweep pattern or a kernel name). Each counter is
/// looked up once per tally, the .violations one on the first
/// violation, so a clean tally registers none.
class SeedTally {
 public:
  SeedTally(CheckReport& report, std::string invariant, std::string subject,
            std::string kernel)
      : report_(report),
        invariant_(std::move(invariant)),
        subject_(std::move(subject)),
        kernel_(std::move(kernel)),
        points_(obs::registry().counter("check." + invariant_ + ".points")) {}

  void point() const {
    ++report_.points;
    points_.add();
  }

  void violation(std::string stage, std::string detail) const {
    if (violations_ == nullptr) {
      violations_ =
          &obs::registry().counter("check." + invariant_ + ".violations");
    }
    violations_->add();
    report_.violations.push_back(Violation{invariant_, subject_, kernel_,
                                           std::move(stage),
                                           std::move(detail)});
  }

 private:
  CheckReport& report_;
  std::string invariant_;
  std::string subject_;
  std::string kernel_;
  obs::Counter& points_;
  mutable obs::Counter* violations_ = nullptr;
};

}  // namespace

machine::MachineDescriptor random_machine(unsigned seed) {
  std::mt19937 rng(seed);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](std::initializer_list<int> opts) {
    std::vector<int> v(opts);
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(
        rng)];
  };

  machine::MachineDescriptor m;
  m.name = "random-" + std::to_string(seed);

  const int cluster_width = pick({1, 2, 4});
  const int clusters_per_region = pick({1, 2, 4});
  const int regions = pick({1, 2, 4});
  const int cores_per_region = cluster_width * clusters_per_region;
  m.num_cores = cores_per_region * regions;

  machine::CoreSpec c;
  c.clock_ghz = uniform(0.8, 4.0);
  c.decode_width = pick({2, 3, 4, 5});
  c.issue_width = c.decode_width * 2;
  c.out_of_order = pick({0, 1}) != 0;
  c.fp_pipes = pick({1, 2});
  c.fma = pick({0, 1}) != 0;
  c.mem_ports = pick({1, 2, 3});
  c.scalar_eff = uniform(0.1, 0.9);
  c.stream_bw_gbs = uniform(0.5, 25.0);
  c.scalar_stream_derate = uniform(0.3, 1.0);
  if (pick({0, 1}) != 0) {
    machine::VectorUnit v;
    v.isa = "RVV v0.7.1";
    v.width_bits = pick({128, 256, 512});
    v.fp32 = true;
    v.fp64 = pick({0, 1}) != 0;
    v.efficiency_fp32 = uniform(0.2, 0.9);
    v.efficiency_fp64 = v.fp64 ? uniform(0.2, 0.9) : 0.0;
    c.vector = v;
  }
  m.core = c;

  m.l1d = machine::CacheSpec{
      static_cast<std::size_t>(pick({16, 32, 64})) * 1024, 64, 1, 32.0,
      4.0};
  m.l2 = machine::CacheSpec{
      static_cast<std::size_t>(pick({256, 512, 1024, 2048})) * 1024, 64,
      cluster_width, 24.0, 16.0};
  if (pick({0, 1}) != 0) {
    m.l3 = machine::CacheSpec{
        static_cast<std::size_t>(pick({4, 16, 64})) * 1024 * 1024, 64,
        m.num_cores, uniform(20.0, 200.0), 60.0};
    m.l3_memory_side = pick({0, 1}) != 0;
  } else {
    m.l3 = machine::CacheSpec{};
  }

  for (int r = 0; r < regions; ++r) {
    machine::NumaRegion region;
    for (int i = 0; i < cores_per_region; ++i) {
      region.cores.push_back(r * cores_per_region + i);
    }
    region.controllers = 1;
    region.mem_bw_gbs = uniform(2.0, 60.0);
    m.numa.push_back(region);
  }
  for (int base = 0; base < m.num_cores; base += cluster_width) {
    std::vector<int> cl;
    for (int i = 0; i < cluster_width; ++i) cl.push_back(base + i);
    m.clusters.push_back(cl);
  }

  m.cluster_bw_gbs = pick({0, 1}) != 0 ? uniform(1.0, 20.0) : 0.0;
  m.fork_join_us = uniform(0.5, 10.0);
  m.barrier_us_per_thread = uniform(0.01, 1.0);
  m.numa_span_sync_factor = uniform(1.0, 1.5);
  m.oversubscribe_gamma = uniform(0.0, 1.0);
  m.oversubscribe_knee =
      pick({0, 1}) != 0 ? 0.0 : cores_per_region / 2.0;
  m.atomic_rtt_ns = uniform(20.0, 150.0);
  return m;
}

CheckReport fuzz_invariants(unsigned first_seed, unsigned num_seeds,
                            const FuzzOptions& opt, int jobs) {
  std::vector<core::KernelSignature> sigs;
  for (const auto& name : opt.kernels) {
    const core::KernelSignature* sig = kernels::find_signature(name);
    if (sig == nullptr) {
      throw std::invalid_argument("fuzz_invariants: unknown kernel " + name);
    }
    sigs.push_back(*sig);
  }

  // One shard per seed; the InvariantChecker (and its Simulator) is
  // built inside the shard, so workers share nothing mutable.
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    const auto m = random_machine(seed);
    const InvariantChecker checker(m, opt.check);
    CheckReport shard;

    const auto thread_grid = serial_half_full_threads(m.num_cores);

    for (const auto& sig : sigs) {
      for (const auto prec : core::all_precisions) {
        for (const auto placement : machine::all_placements) {
          sim::SimConfig cfg;
          cfg.precision = prec;
          cfg.placement = placement;
          for (const int t : thread_grid) {
            cfg.nthreads = t;
            checker.check_point(sig, cfg, shard);
          }
          checker.check_thread_monotonicity(sig, cfg, thread_grid, shard);
        }
      }
    }
    return shard;
  });
}

namespace {

std::string render_stats(const cachesim::CacheStats& s) {
  std::ostringstream os;
  os << "rh=" << s.read_hits << " rm=" << s.read_misses
     << " wh=" << s.write_hits << " wm=" << s.write_misses
     << " ev=" << s.evictions << " wb=" << s.writebacks
     << " wbh=" << s.wb_hits << " wbm=" << s.wb_misses;
  return os.str();
}

/// "" when the two replays agree bit-for-bit on everything the oracle
/// pins; otherwise a one-line description of the first divergence.
std::string diff_replays(const cachesim::ReplayResult& a,
                         const cachesim::ReplayResult& b,
                         const std::string& an, const std::string& bn) {
  if (a.accesses != b.accesses) {
    return "accesses " + std::to_string(a.accesses) + " (" + an + ") vs " +
           std::to_string(b.accesses) + " (" + bn + ")";
  }
  if (a.hierarchy.dram_bytes() != b.hierarchy.dram_bytes()) {
    return "dram_bytes " + std::to_string(a.hierarchy.dram_bytes()) +
           " (" + an + ") vs " + std::to_string(b.hierarchy.dram_bytes()) +
           " (" + bn + ")";
  }
  if (a.steady_delta != b.steady_delta) {
    return "measured rep deltas differ (" + an + " vs " + bn + ")";
  }
  for (std::size_t l = 0; l < a.hierarchy.levels(); ++l) {
    const auto& sa = a.hierarchy.level(l).stats();
    const auto& sb = b.hierarchy.level(l).stats();
    if (!(sa == sb)) {
      return a.hierarchy.level(l).config().name + " " + an + "{" +
             render_stats(sa) + "} " + bn + "{" + render_stats(sb) + "}";
    }
  }
  return {};
}

/// "" when the set shards of a replay sum to the whole replay: access
/// count, every level's stats and the measured rep's delta. Otherwise
/// a one-line description of the first divergence.
std::string diff_shard_sum(const cachesim::ReplayResult& whole,
                           const std::vector<cachesim::ReplayResult>& shards) {
  const std::size_t levels = whole.hierarchy.levels();
  std::uint64_t accesses = 0;
  std::vector<cachesim::CacheStats> stats(levels), delta(levels);
  for (const auto& s : shards) {
    accesses += s.accesses;
    for (std::size_t l = 0; l < levels; ++l) {
      stats[l] += s.hierarchy.level(l).stats();
      delta[l] += s.steady_delta[l];
    }
  }
  const std::string k = std::to_string(shards.size());
  if (accesses != whole.accesses) {
    return "accesses " + std::to_string(whole.accesses) + " (stream) vs " +
           std::to_string(accesses) + " (" + k + " shards)";
  }
  for (std::size_t l = 0; l < levels; ++l) {
    const auto& level = whole.hierarchy.level(l);
    if (!(stats[l] == level.stats())) {
      return level.config().name + " stream{" + render_stats(level.stats()) +
             "} " + k + " shards{" + render_stats(stats[l]) + "}";
    }
    if (!(delta[l] == whole.steady_delta[l])) {
      return level.config().name + " measured rep stream{" +
             render_stats(whole.steady_delta[l]) + "} " + k + " shards{" +
             render_stats(delta[l]) + "}";
    }
  }
  return {};
}

struct AgreeCase {
  core::AccessPattern pattern;
  std::size_t arrays;
  std::size_t elems;
  std::size_t stride;
  int reps;
};

// Small enough that the vector reference stays cheap on every random
// machine, large enough to spill L1 and exercise evictions.
constexpr AgreeCase kAgreeCases[] = {
    {core::AccessPattern::Streaming, 3, std::size_t{1} << 12, 8, 6},
    {core::AccessPattern::Reduction, 1, std::size_t{1} << 12, 8, 6},
    {core::AccessPattern::Strided, 2, std::size_t{1} << 12, 16, 6},
    {core::AccessPattern::Stencil1D, 2, std::size_t{1} << 12, 8, 5},
    {core::AccessPattern::Stencil2D, 2, std::size_t{1} << 12, 8, 5},
    {core::AccessPattern::Gather, 2, std::size_t{1} << 11, 8, 4},
    {core::AccessPattern::Sequential, 1, std::size_t{1} << 12, 8, 6},
};

}  // namespace

cachesim::ReplayResult replay_vector(
    const std::vector<cachesim::CacheConfig>& cfgs,
    const cachesim::SweepSpec& spec, int reps) {
  if (reps < 1) throw std::invalid_argument("replay: reps must be >= 1");
  if (cfgs.empty()) {
    throw std::invalid_argument("replay: needs at least one level");
  }
  cachesim::ReplayResult result{cachesim::Hierarchy(cfgs), 0, {}};
  cachesim::Hierarchy& h = result.hierarchy;
  const cachesim::Trace trace = cachesim::generate_sweep(spec);
  for (int r = 0; r < reps; ++r) {
    if (r + 1 == reps) {  // the measured rep
      for (std::size_t i = 0; i < h.levels(); ++i) {
        result.steady_delta.push_back(h.level(i).stats());
      }
    }
    for (const auto& a : trace) {
      h.access(a.addr, a.is_write);
      ++result.accesses;
    }
  }
  for (std::size_t i = 0; i < h.levels(); ++i) {
    const cachesim::CacheStats before = result.steady_delta[i];
    result.steady_delta[i] = h.level(i).stats();
    result.steady_delta[i] -= before;
  }
  return result;
}

namespace {

/// Replay identity of one case on an explicit hierarchy: vector vs
/// stream, and (where the hierarchy splits) the sum of two set shards
/// vs the stream. `subject` names the machine (plus any config
/// perturbation) in violation reports.
void agree_replays(const std::vector<cachesim::CacheConfig>& cfgs,
                   const std::string& subject, const AgreeCase& c,
                   CheckReport& report) {
  cachesim::SweepSpec spec;
  spec.pattern = c.pattern;
  spec.arrays = c.arrays;
  spec.elems = c.elems;
  spec.stride_elems = c.stride;

  const auto vec = replay_vector(cfgs, spec, c.reps);
  const auto str = cachesim::replay_stream(cfgs, spec, c.reps);
  std::string detail = diff_replays(vec, str, "vector", "stream");
  if (detail.empty() && cachesim::Hierarchy::shard_limit(cfgs) >= 2) {
    std::vector<cachesim::ReplayResult> shards;
    for (std::size_t k = 0; k < 2; ++k) {
      shards.push_back(cachesim::replay_stream(cfgs, spec, c.reps, k, 2));
    }
    detail = diff_shard_sum(str, shards);
  }

  const SeedTally tally(
      report, "cachesim-replay-agreement", subject,
      std::string("sweep-") + std::string(core::to_string(c.pattern)));
  tally.point();
  if (!detail.empty()) {
    tally.violation("elems=" + std::to_string(c.elems) +
                        " reps=" + std::to_string(c.reps),
                    detail);
  }
}

}  // namespace

CheckReport cachesim_agreement(const machine::MachineDescriptor& m) {
  using core::AccessPattern;
  CheckReport report;
  const auto cfgs = cachesim::hierarchy_configs(m);
  for (const auto& c : kAgreeCases) {
    agree_replays(cfgs, m.name, c, report);
  }

  // Config perturbations the descriptor path never builds: FIFO
  // replacement at every level (fill stamps must survive batching)
  // and a write-around L1 (a missing pure-write segment forwards at
  // full multiplicity down the hierarchy).
  auto fifo = cfgs;
  for (auto& cfg : fifo) cfg.policy = cachesim::ReplacementPolicy::FIFO;
  auto wa = cfgs;
  wa.front().write_allocate = false;
  const AgreeCase perturbed[] = {
      {AccessPattern::Streaming, 3, std::size_t{1} << 12, 8, 5},
      {AccessPattern::Gather, 2, std::size_t{1} << 11, 8, 4},
      {AccessPattern::Sequential, 1, std::size_t{1} << 12, 8, 5},
  };
  for (const auto& c : perturbed) {
    agree_replays(fifo, m.name + "+fifo", c, report);
    agree_replays(wa, m.name + "+write-around", c, report);
  }
  return report;
}

CheckReport fuzz_cachesim(unsigned first_seed, unsigned num_seeds,
                          int jobs) {
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    return cachesim_agreement(
        random_machine(first_seed + static_cast<unsigned>(i)));
  });
}

// ------------------------------------------------- segment fuzzing --

namespace {

namespace fs = std::filesystem;

/// One seeded, random-but-valid segment: encoded cache entries with
/// random fingerprints, breakdowns and structured note fields across
/// their whole valid range.
std::vector<std::vector<std::byte>> random_payloads(std::mt19937_64& rng) {
  const std::size_t n = rng() % 6;  // 0..5 entries; 0 = empty segment
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    engine::CacheKey key{rng(), rng(), rng()};
    sim::TimeBreakdown tb;
    auto real = [&rng] {
      return static_cast<double>(rng() % 1'000'000) * 1e-6;
    };
    tb.compute_s = real();
    tb.memory_s = real();
    tb.sync_s = real();
    tb.atomic_s = real();
    tb.total_s = tb.compute_s + tb.memory_s + tb.sync_s + tb.atomic_s;
    tb.serving = static_cast<sim::MemLevel>(rng() % 4);
    tb.vector_path = (rng() % 2) != 0;
    tb.note = static_cast<compiler::NoteKind>(rng() % 6);
    tb.note_compiler = static_cast<core::CompilerId>(rng() % 2);
    tb.note_mode = static_cast<core::VectorMode>(rng() % 3);
    tb.note_rollback = (rng() % 2) != 0;
    payloads.push_back(engine::encode_cache_entry(key, tb));
  }
  return payloads;
}

/// One named, seeded corruption of a fuzz input. The fuzzers pick an
/// entry with `rng() % table.size()`, so a table's order is part of
/// the seed-to-mutation mapping.
template <typename Buffer>
struct Mutation {
  const char* name;
  void (*apply)(Buffer&, std::mt19937_64&);
  bool must_fail = true;           ///< a guaranteed rejection
  bool expects_too_large = false;  ///< rejected as ErrorCode::TooLarge
};

/// Drops a random non-zero tail (a torn write or a crash).
template <typename Buffer>
void truncate(Buffer& b, std::mt19937_64& rng) {
  b.resize(rng() % b.size());  // strictly shorter
}

using Bytes = std::vector<std::byte>;

const std::array<Mutation<Bytes>, 5> kSegmentMutations{{
    {"truncate", truncate<Bytes>},
    {"bitflip",
     [](Bytes& bytes, std::mt19937_64& rng) {
       const std::uint64_t bit = rng() % (bytes.size() * 8);
       bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
     }},
    {"version-bump",
     [](Bytes& bytes, std::mt19937_64& rng) {
       // Version field is bytes [8, 12); force a value != kSegmentVersion.
       const std::uint32_t v = engine::kSegmentVersion + 1 +
                               static_cast<std::uint32_t>(rng() % 7);
       for (int i = 0; i < 4; ++i) {
         bytes[8 + static_cast<std::size_t>(i)] =
             static_cast<std::byte>((v >> (8 * i)) & 0xff);
       }
     }},
    {"bad-magic",
     [](Bytes& bytes, std::mt19937_64& rng) {
       bytes[rng() % 8] ^= static_cast<std::byte>(0x80 | (rng() % 0x7f + 1));
     }},
    {"trailing-garbage",
     [](Bytes& bytes, std::mt19937_64& rng) {
       const std::size_t extra = 1 + rng() % 32;
       for (std::size_t i = 0; i < extra; ++i) {
         bytes.push_back(static_cast<std::byte>(rng() % 256));
       }
     }},
}};

}  // namespace

CheckReport fuzz_segments(unsigned first_seed, unsigned num_seeds,
                          const std::string& dir, int jobs) {
  fs::create_directories(dir);
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    const SeedTally tally(shard, "persist-segment-robustness",
                          "segment-fuzz", "seed-" + std::to_string(seed));

    std::mt19937_64 rng(seed);
    const auto payloads = random_payloads(rng);
    std::vector<std::byte> bytes = engine::build_segment(payloads);

    // 1. The untouched segment round-trips: status Ok, every payload
    //    delivered byte-identically, in order.
    {
      std::vector<std::vector<std::byte>> got;
      const auto parse = engine::parse_segment(
          bytes, [&](std::span<const std::byte> p) {
            got.emplace_back(p.begin(), p.end());
          });
      tally.point();
      if (parse.status != engine::SegmentStatus::Ok || got != payloads) {
        tally.violation(
            "round-trip",
            "status=" + std::string(engine::to_string(parse.status)) +
                " delivered=" + std::to_string(got.size()) + "/" +
                std::to_string(payloads.size()));
      }
    }

    // 2. A seeded mutation must be detected: non-Ok status, zero
    //    payloads delivered, and the classification is deterministic
    //    (parsing the same bytes twice agrees).
    const auto& m = kSegmentMutations[rng() % kSegmentMutations.size()];
    m.apply(bytes, rng);
    std::uint64_t delivered = 0;
    const auto first = engine::parse_segment(
        bytes, [&](std::span<const std::byte>) { ++delivered; });
    const auto second = engine::parse_segment(
        bytes, [](std::span<const std::byte>) {});
    tally.point();
    if (first.status == engine::SegmentStatus::Ok || delivered != 0) {
      tally.violation(
          m.name,
          "mutation not detected: status=" +
              std::string(engine::to_string(first.status)) +
              " delivered=" + std::to_string(delivered));
    } else if (first.status != second.status) {
      tally.violation(
          m.name,
          "nondeterministic classification: " +
              std::string(engine::to_string(first.status)) + " vs " +
              std::string(engine::to_string(second.status)));
    }

    // 3. The file loader agrees with the in-memory parse and leaves the
    //    right artifacts: quarantine for BadMagic/Corrupt, the file
    //    refused in place for BadVersion.
    const std::string path =
        (fs::path(dir) / ("fuzz-" + std::to_string(seed) + ".sgpc"))
            .string();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    const auto loaded = engine::load_segment_file(
        path, [](std::span<const std::byte>) {}, nullptr, /*warn=*/false);
    const bool expect_quarantine =
        loaded.status == engine::SegmentStatus::BadMagic ||
        loaded.status == engine::SegmentStatus::Corrupt;
    const bool quarantined = fs::exists(path + ".quarantine");
    const bool in_place = fs::exists(path);
    tally.point();
    if (loaded.status != first.status) {
      tally.violation(
          m.name,
          "loader/parser disagree: " +
              std::string(engine::to_string(loaded.status)) + " vs " +
              std::string(engine::to_string(first.status)));
    } else if (quarantined != expect_quarantine ||
               in_place == expect_quarantine) {
      tally.violation(
          m.name,
          "wrong disk artifact for " +
              std::string(engine::to_string(loaded.status)) +
              ": quarantined=" + (quarantined ? "yes" : "no") +
              " in_place=" + (in_place ? "yes" : "no"));
    }
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".quarantine", ec);
    return shard;
  });
}

namespace {

/// One seeded, random-but-valid request line covering every op and the
/// simulation-field surface (machines, kernel lists, thread grids,
/// formats, deadlines).
std::string random_request_line(std::mt19937_64& rng) {
  const std::string id = "req-" + std::to_string(rng() % 100000);
  const std::uint64_t kind = rng() % 8;
  if (kind == 0) return "{\"id\":\"" + id + "\",\"op\":\"ping\"}";
  if (kind == 1) return "{\"id\":\"" + id + "\",\"op\":\"stats\"}";
  if (kind == 2) return "{\"id\":\"" + id + "\",\"op\":\"metrics\"}";

  // Multicore machines only, so any thread pick below stays in range.
  static const char* kMachines[] = {"sg2042", "rome", "icelake",
                                    "broadwell"};
  static const char* kKernels[] = {"TRIAD", "COPY", "GEMM", "DOT",
                                   "JACOBI_2D"};
  const std::string machine = kMachines[rng() % std::size(kMachines)];
  std::string line = "{\"id\":\"" + id + "\"";
  line += ",\"machine\":\"" + machine + "\"";
  // simulate takes exactly one point, so it always pins one precision;
  // sweep may also omit the field (default: both).
  if (kind == 3 || rng() % 2 == 0) {
    line += std::string(",\"precision\":\"") +
            (rng() % 2 == 0 ? "fp32" : "fp64") + "\"";
  }
  if (rng() % 2 == 0) {
    line += std::string(",\"format\":\"") +
            (rng() % 2 == 0 ? "csv" : "json") + "\"";
  }
  if (rng() % 3 == 0) {
    line += ",\"deadline_ms\":" + std::to_string(100 + rng() % 1000);
  }
  if (kind == 3) {
    line += ",\"op\":\"simulate\"";
    line += std::string(",\"kernel\":\"") +
            kKernels[rng() % std::size(kKernels)] + "\"";
    line += ",\"threads\":" + std::to_string(1 + rng() % 16);
  } else {
    line += ",\"op\":\"sweep\"";
    const std::size_t nk = 1 + rng() % 3;
    const std::size_t base = rng() % std::size(kKernels);
    line += ",\"kernels\":[";
    for (std::size_t k = 0; k < nk; ++k) {
      if (k > 0) line += ",";
      // Consecutive names from a random offset: distinct for nk <= 5
      // (duplicates are correctly rejected, so the valid line must
      // avoid them).
      line += std::string("\"") +
              kKernels[(base + k) % std::size(kKernels)] + "\"";
    }
    line += "]";
    line += ",\"threads\":[1," + std::to_string(2 + rng() % 15) + "]";
  }
  line += "}";
  return line;
}

/// Line cap for request fuzzing: small, so oversize stays cheap.
constexpr std::size_t kFuzzMaxLineBytes = 4096;

// Structural mutations are guaranteed rejections; byte-level ones may
// legitimately still parse (a flip inside a string literal).
const std::array<Mutation<std::string>, 6> kRequestMutations{{
    {"truncate", truncate<std::string>},
    {.name = "byte-garbage",
     .apply =
         [](std::string& line, std::mt19937_64& rng) {
           const std::size_t n = 1 + rng() % 4;
           for (std::size_t i = 0; i < n; ++i) {
             line[rng() % line.size()] = static_cast<char>(rng() % 256);
           }
         },
     .must_fail = false},
    {.name = "bad-utf8",
     .apply =
         [](std::string& line, std::mt19937_64& rng) {
           static const char* kBad[] = {"\xff", "\x80", "\xc0\x80",
                                        "\xed\xa0\x80", "\xf5\x80\x80\x80"};
           line.insert(rng() % line.size(), kBad[rng() % std::size(kBad)]);
         },
     .must_fail = false},
    // After the opening brace, so the object still parses as JSON and
    // rejection must come from schema validation.
    {"unknown-field",
     [](std::string& line, std::mt19937_64&) {
       line.insert(1, "\"xq_unknown_field\":12345,");
     }},
    {"duplicate-key",
     [](std::string& line, std::mt19937_64&) {
       line.insert(1, "\"id\":\"twin\",");
     }},
    {.name = "oversize",
     .apply =
         [](std::string& line, std::mt19937_64&) {
           line.append(kFuzzMaxLineBytes + 1 -
                           std::min(line.size(), kFuzzMaxLineBytes),
                       ' ');
         },
     .expects_too_large = true},
}};

/// Canonical rendering of a parse outcome, for determinism comparison
/// and diagnostics.
std::string outcome_repr(const serve::ParseOutcome& o) {
  if (const auto* req = std::get_if<serve::Request>(&o)) {
    return "ok fp=" + std::to_string(req->fingerprint()) +
           " id=" + req->id;
  }
  const auto& [id, err] =
      std::get<std::pair<std::string, serve::ServeError>>(o);
  return "err code=" + std::string(serve::to_string(err.code)) +
         " id=" + id + " msg=" + err.message;
}

}  // namespace

CheckReport fuzz_requests(unsigned first_seed, unsigned num_seeds,
                          int jobs) {
  serve::ProtocolLimits limits;
  limits.max_line_bytes = kFuzzMaxLineBytes;

  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    const SeedTally tally(shard, "serve-request-robustness",
                          "request-fuzz", "seed-" + std::to_string(seed));

    std::mt19937_64 rng(seed);
    std::string line = random_request_line(rng);

    // 1. The untouched line is accepted.
    tally.point();
    try {
      const auto ok = serve::parse_request(line, limits);
      if (!std::holds_alternative<serve::Request>(ok)) {
        tally.violation("valid-line",
                        "rejected: " + outcome_repr(ok) + " line=" + line);
      }
    } catch (const std::exception& e) {
      tally.violation("valid-line", std::string("threw: ") + e.what());
      return shard;
    }

    // 2. A seeded mutation: never crash, classify deterministically,
    //    and structured errors must render as valid JSON lines.
    const auto& m = kRequestMutations[rng() % kRequestMutations.size()];
    m.apply(line, rng);
    const std::string stage = m.name;
    try {
      const auto first = serve::parse_request(line, limits);
      const auto second = serve::parse_request(line, limits);
      tally.point();
      if (outcome_repr(first) != outcome_repr(second)) {
        tally.violation(stage, "nondeterministic classification: " +
                                   outcome_repr(first) + " vs " +
                                   outcome_repr(second));
      }
      if (const auto* failed =
              std::get_if<std::pair<std::string, serve::ServeError>>(
                  &first)) {
        tally.point();
        const auto& err = failed->second;
        const std::string rendered =
            serve::render_error(failed->first, err);
        if (err.message.empty() ||
            serve::to_string(err.code) == std::string_view("?") ||
            !obs::json_valid(rendered)) {
          tally.violation(stage, "unstructured error: " + rendered);
        }
        if (m.expects_too_large &&
            err.code != serve::ErrorCode::TooLarge) {
          tally.violation(stage,
                          "oversize line classified as " +
                              std::string(serve::to_string(err.code)));
        }
      } else if (m.must_fail) {
        tally.point();
        tally.violation(stage, "mutation not detected: " + outcome_repr(first));
      }
    } catch (const std::exception& e) {
      tally.violation(stage, std::string("threw: ") + e.what());
    }
    return shard;
  });
}

// --------------------------------------------- machine INI round trip --

namespace {

/// A valid but non-uniform cluster variant of `m`: merges the first
/// two clusters when they share a NUMA region, otherwise splits the
/// first cluster with two or more cores. Returns `m` unchanged only
/// for all-singleton single-cluster machines, where neither applies.
machine::MachineDescriptor heterogeneous_variant(
    const machine::MachineDescriptor& m) {
  machine::MachineDescriptor out = m;
  if (out.clusters.size() >= 2 &&
      m.numa_of_core(out.clusters[0].front()) ==
          m.numa_of_core(out.clusters[1].front())) {
    out.clusters[0].insert(out.clusters[0].end(), out.clusters[1].begin(),
                           out.clusters[1].end());
    out.clusters.erase(out.clusters.begin() + 1);
    return out;
  }
  for (auto it = out.clusters.begin(); it != out.clusters.end(); ++it) {
    if (it->size() >= 2) {
      std::vector<int> tail(it->begin() + 1, it->end());
      it->resize(1);
      out.clusters.insert(it + 1, std::move(tail));
      return out;
    }
  }
  return out;
}

}  // namespace

CheckReport fuzz_ini_roundtrip(unsigned first_seed, unsigned num_seeds,
                               int jobs) {
  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    const SeedTally tally(shard, "machine-ini-roundtrip", "ini-fuzz",
                          "seed-" + std::to_string(seed));

    const auto m = random_machine(seed);
    const std::string text = machine::to_ini(m);

    // 1. The generated machine round-trips byte-identically.
    tally.point();
    try {
      const auto back = machine::from_ini(text);
      if (machine::to_ini(back) != text || back.clusters != m.clusters ||
          back.numa.size() != m.numa.size()) {
        tally.violation("round-trip",
                        "to_ini(from_ini(text)) differs from text");
      }
    } catch (const std::exception& e) {
      tally.violation("round-trip", std::string("threw: ") + e.what());
    }

    // 2. Non-uniform clusters survive via explicit cluster.N lists
    //    (the topology to_ini used to flatten to cluster_width).
    tally.point();
    try {
      const auto het = heterogeneous_variant(m);
      het.validate();
      const auto het_text = machine::to_ini(het);
      const auto back = machine::from_ini(het_text);
      if (back.clusters != het.clusters ||
          machine::to_ini(back) != het_text) {
        tally.violation("heterogeneous-clusters",
                        "cluster topology lost in round trip");
      }
    } catch (const std::exception& e) {
      tally.violation("heterogeneous-clusters",
                      std::string("threw: ") + e.what());
    }

    // 3. A repeated section header is rejected, with a line number
    //    (it used to merge silently).
    tally.point();
    try {
      (void)machine::from_ini(text + "\n[core]\nclock_ghz = 1\n");
      tally.violation("duplicate-section", "repeated [core] header accepted");
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.find("duplicate section") == std::string::npos ||
          what.find("line ") == std::string::npos) {
        tally.violation("duplicate-section", "wrong error: " + what);
      }
    }

    // 4. A repeated key is rejected, with a line number (last-one-wins
    //    was silent data loss).
    tally.point();
    {
      std::string dup = text;
      const auto pos = dup.find("num_cores = ");
      dup.insert(pos, "num_cores = 1\n");
      try {
        (void)machine::from_ini(dup);
        tally.violation("duplicate-key", "repeated num_cores accepted");
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        if (what.find("duplicate key 'num_cores'") == std::string::npos ||
            what.find("line ") == std::string::npos) {
          tally.violation("duplicate-key", "wrong error: " + what);
        }
      }
    }

    // 5. An empty value is a clear parse error, not a silent default
    //    (the shape a formatting failure used to produce).
    tally.point();
    {
      std::string empty_value = text;
      const auto pos = empty_value.find("clock_ghz = ");
      const auto eol = empty_value.find('\n', pos);
      empty_value.replace(pos, eol - pos, "clock_ghz =");
      try {
        (void)machine::from_ini(empty_value);
        tally.violation("empty-value", "empty clock_ghz accepted");
      } catch (const std::invalid_argument&) {
        // rejected, as required
      }
    }

    // 6. The descriptor registers and resolves through a registry.
    tally.point();
    try {
      machine::MachineRegistry registry;
      registry.add(m.name, m);
      if (!registry.contains(m.name) ||
          registry.descriptor(m.name).num_cores != m.num_cores) {
        tally.violation("registry", "registered machine did not resolve");
      }
    } catch (const std::exception& e) {
      tally.violation("registry", std::string("threw: ") + e.what());
    }

    return shard;
  });
}

// ------------------------------------------- batched-path identity --

namespace {

/// "" when two breakdowns agree bit-for-bit on every field; otherwise
/// the first differing field with both values.
std::string diff_breakdowns(const sim::TimeBreakdown& a,
                            const sim::TimeBreakdown& b,
                            const std::string& an, const std::string& bn) {
  auto bits_differ = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) != 0;
  };
  auto render = [](double x) {
    std::ostringstream os;
    os.precision(17);
    os << x;
    return os.str();
  };
  const struct {
    const char* name;
    double a;
    double b;
  } fields[] = {
      {"compute_s", a.compute_s, b.compute_s},
      {"memory_s", a.memory_s, b.memory_s},
      {"sync_s", a.sync_s, b.sync_s},
      {"atomic_s", a.atomic_s, b.atomic_s},
      {"total_s", a.total_s, b.total_s},
  };
  for (const auto& f : fields) {
    if (bits_differ(f.a, f.b)) {
      return std::string(f.name) + " " + render(f.a) + " (" + an + ") vs " +
             render(f.b) + " (" + bn + ")";
    }
  }
  if (a.serving != b.serving) return "serving differs (" + an + " vs " + bn + ")";
  if (a.vector_path != b.vector_path) {
    return "vector_path differs (" + an + " vs " + bn + ")";
  }
  if (a.note != b.note || a.note_compiler != b.note_compiler ||
      a.note_mode != b.note_mode || a.note_rollback != b.note_rollback) {
    return "note fields differ (" + an + " vs " + bn + ")";
  }
  return {};
}

std::string render_batch_config(const sim::SimConfig& cfg) {
  std::ostringstream os;
  os << core::to_string(cfg.precision) << "/t=" << cfg.nthreads
     << "/place=" << static_cast<int>(cfg.placement) << "/"
     << core::to_string(cfg.compiler) << "/"
     << core::to_string(cfg.vector_mode);
  return os.str();
}

}  // namespace

CheckReport fuzz_batch_identity(unsigned first_seed, unsigned num_seeds,
                                int jobs) {
  std::vector<core::KernelSignature> sigs;
  for (const auto& s : kernels::all_signatures()) {
    if (s.name == "TRIAD" || s.name == "GEMM" || s.name == "DOT") {
      sigs.push_back(s);
    }
  }

  return sharded_reports(num_seeds, jobs, [&](std::size_t i) {
    const unsigned seed = first_seed + static_cast<unsigned>(i);
    CheckReport shard;
    const auto m = random_machine(seed);
    const sim::Simulator sim(m);
    std::mt19937_64 rng(seed);
    // One tally per kernel: a violation names the kernel it hit.
    std::vector<SeedTally> tallies;
    tallies.reserve(sigs.size());
    for (const auto& sig : sigs) {
      tallies.emplace_back(shard, "sim-batch-identity", m.name, sig.name);
    }

    auto random_config = [&] {
      sim::SimConfig cfg;
      cfg.precision = (rng() % 2 == 0) ? core::Precision::FP32
                                       : core::Precision::FP64;
      cfg.nthreads = 1 + static_cast<int>(rng() % m.num_cores);
      cfg.placement =
          machine::all_placements[rng() % machine::all_placements.size()];
      cfg.compiler = (rng() % 2 == 0) ? core::CompilerId::Gcc
                                      : core::CompilerId::Clang;
      // GCC + VLA is a documented hard error in compiler::plan; the
      // fuzz stays on valid configs so every path must produce a value.
      cfg.vector_mode =
          cfg.compiler == core::CompilerId::Gcc
              ? (rng() % 2 == 0 ? core::VectorMode::Scalar
                                : core::VectorMode::VLS)
              : static_cast<core::VectorMode>(rng() % 3);
      return cfg;
    };

    // Ragged shapes: the empty batch, the single point, and two larger
    // mixed-kernel grids with seed-dependent sizes.
    const std::size_t shapes[] = {0, 1, 5 + rng() % 28, 48 + rng() % 80};
    for (const std::size_t count : shapes) {
      std::vector<std::size_t> which(count);
      std::vector<sim::SimConfig> cfgs(count);
      for (std::size_t p = 0; p < count; ++p) {
        which[p] = rng() % sigs.size();
        cfgs[p] = random_config();
      }

      // (a) scalar oracle
      std::vector<sim::TimeBreakdown> scalar(count);
      for (std::size_t p = 0; p < count; ++p) {
        scalar[p] = sim.run(sigs[which[p]], cfgs[p]);
      }

      // (b) Simulator::run_batch, one sub-batch per kernel (a batch
      //     prices one signature).
      std::vector<sim::TimeBreakdown> batched(count);
      for (std::size_t s = 0; s < sigs.size(); ++s) {
        std::vector<std::size_t> idx;
        for (std::size_t p = 0; p < count; ++p) {
          if (which[p] == s) idx.push_back(p);
        }
        std::vector<sim::SimConfig> sub(idx.size());
        std::vector<sim::TimeBreakdown> out(idx.size());
        for (std::size_t k = 0; k < idx.size(); ++k) sub[k] = cfgs[idx[k]];
        sim.run_batch(sigs[s], sub, out);
        for (std::size_t k = 0; k < idx.size(); ++k) {
          batched[idx[k]] = out[k];
        }
      }

      // (c) the engine path, memo-miss then memo-hit replay.
      engine::SweepEngine eng(engine::EngineOptions{/*jobs=*/1,
                                                    /*use_cache=*/true,
                                                    /*persist=*/{}});
      std::vector<engine::SweepPoint> points(count);
      for (std::size_t p = 0; p < count; ++p) {
        points[p] = engine::SweepPoint{&m, &sigs[which[p]], cfgs[p]};
      }
      const auto engine_miss = eng.run_batch(points);
      const auto engine_hit = eng.run_batch(points);

      for (std::size_t p = 0; p < count; ++p) {
        const SeedTally& tally = tallies[which[p]];
        tally.point();
        std::string detail =
            diff_breakdowns(scalar[p], batched[p], "run", "run_batch");
        if (detail.empty()) {
          detail = diff_breakdowns(scalar[p], engine_miss[p], "run",
                                   "engine-miss");
        }
        if (detail.empty()) {
          detail = diff_breakdowns(scalar[p], engine_hit[p], "run",
                                   "engine-hit");
        }
        if (!detail.empty()) {
          tally.violation(render_batch_config(cfgs[p]), std::move(detail));
        }
      }
    }
    return shard;
  });
}

}  // namespace sgp::check
