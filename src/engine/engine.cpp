#include "engine/engine.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sgp::engine {

namespace {

/// Process-wide engine metrics, aggregated over every SweepEngine
/// (the cache's hit/miss mirrors live in SimCache itself).
struct EngineMetrics {
  obs::Counter& requests = obs::registry().counter("engine.requests");
  obs::Counter& simulations =
      obs::registry().counter("engine.simulations");
  obs::Counter& simulators_built =
      obs::registry().counter("engine.simulators_built");
  obs::Counter& batches = obs::registry().counter("engine.batches");

  static EngineMetrics& get() {
    static EngineMetrics* m = new EngineMetrics();
    return *m;
  }
};

}  // namespace

SweepEngine::SweepEngine(EngineOptions opt) : use_cache_(opt.use_cache) {}

std::vector<sim::TimeBreakdown> SweepEngine::run_batch(
    std::span<const SweepPoint> points) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
  EngineMetrics::get().batches.add();
  const obs::Span span("SweepEngine::run_batch");
  std::vector<sim::TimeBreakdown> results(points.size());
  if (points.empty()) return results;

  requests_ += points.size();
  EngineMetrics::get().requests.add(points.size());

  // Group the batch by (machine, signature) identity, in order of first
  // appearance: the fingerprint prefix (machine_fingerprint walks every
  // descriptor field; a signature's comes from the kernel table or
  // hashes ~30 fields) is found once per group, so each point only
  // hashes its SimConfig.
  struct Group {
    const machine::MachineDescriptor* machine;
    const core::KernelSignature* signature;
    const sim::Simulator* simulator;
    std::uint64_t machine_fp;
    std::uint64_t signature_fp;
  };
  struct MachineEntry {
    const machine::MachineDescriptor* machine;
    std::uint64_t fp;
    const sim::Simulator* simulator;
  };
  std::vector<Group> groups;
  std::vector<MachineEntry> machines;
  // Open-addressing index from the pointer pair to group + 1 (0 =
  // empty). A batch has no more groups than points, so twice as many
  // slots keep it at most half full.
  std::vector<std::uint32_t> index(std::bit_ceil(2 * points.size()), 0);
  const std::size_t mask = index.size() - 1;
  const int shift = 64 - std::countr_zero(index.size());
  std::vector<std::uint32_t> point_group(points.size());
  std::vector<CacheKey> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const std::uint64_t h =
        (reinterpret_cast<std::uintptr_t>(p.machine) * 0x9e3779b97f4a7c15ull ^
         reinterpret_cast<std::uintptr_t>(p.signature)) *
        0xc2b2ae3d27d4eb4full;
    std::size_t slot = static_cast<std::size_t>(h >> shift);
    for (; index[slot] != 0; slot = (slot + 1) & mask) {
      const Group& g = groups[index[slot] - 1];
      if (g.machine == p.machine && g.signature == p.signature) break;
    }
    if (index[slot] == 0) {
      std::size_t me = 0;
      while (me < machines.size() && machines[me].machine != p.machine) ++me;
      if (me == machines.size()) {
        const std::uint64_t fp = machine_fingerprint(*p.machine);
        const auto [it, built] = sims_.try_emplace(fp, *p.machine);
        if (built) {
          ++simulators_built_;
          EngineMetrics::get().simulators_built.add();
        }
        machines.push_back(MachineEntry{p.machine, fp, &it->second});
      }
      groups.push_back(Group{p.machine, p.signature, machines[me].simulator,
                             machines[me].fp,
                             table_signature_fingerprint(*p.signature)});
      index[slot] = static_cast<std::uint32_t>(groups.size());
    }
    const Group& g = groups[index[slot] - 1];
    point_group[i] = index[slot] - 1;
    keys[i] = CacheKey{g.machine_fp, g.signature_fp,
                       config_fingerprint(p.config)};
  }

  std::vector<std::uint8_t> hit(points.size(), 0);
  std::vector<std::uint32_t> slot(use_cache_ ? points.size() : 0);
  if (use_cache_) {
    cache_.lookup_batch(keys, results, hit, slot);
  }
  // Counting sort of the misses by group, in point order inside each
  // group: count into miss_end[g], turn the counts into starts, then
  // advance each start past its group's misses, which leaves group g's
  // run of `miss` at [miss_end[g - 1], miss_end[g]).
  std::vector<std::uint32_t> miss_end(groups.size(), 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!hit[i]) ++miss_end[point_group[i]];
  }
  std::exclusive_scan(miss_end.begin(), miss_end.end(), miss_end.begin(),
                      std::uint32_t{0});
  std::vector<std::uint32_t> miss(
      static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 0)));
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!hit[i]) {
      miss[miss_end[point_group[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  // Price each group's misses through one sim::Simulator::run_batch.
  // A key asked for twice is priced twice (identical values) but stored
  // once.
  std::vector<sim::SimConfig> cfgs;
  std::vector<sim::TimeBreakdown> outs;
  std::uint32_t begin = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::span<const std::uint32_t> run(miss.data() + begin,
                                             miss_end[gi] - begin);
    begin = miss_end[gi];
    if (run.empty()) continue;
    const Group& g = groups[gi];
    cfgs.clear();
    for (const std::uint32_t i : run) cfgs.push_back(points[i].config);
    outs.resize(cfgs.size());
    g.simulator->run_batch(*g.signature, cfgs, outs);
    simulations_ += cfgs.size();
    EngineMetrics::get().simulations.add(cfgs.size());
    for (std::size_t k = 0; k < run.size(); ++k) {
      const std::uint32_t i = run[k];
      results[i] = outs[k];
      if (use_cache_) cache_.insert(keys[i], slot[i], outs[k]);
    }
  }
  return results;
}

std::vector<sim::TimeBreakdown> SweepEngine::run_grid(
    const machine::MachineDescriptor& m,
    std::span<const core::KernelSignature> sigs,
    std::span<const sim::SimConfig> cfgs) {
  const obs::Span span("SweepEngine::run_grid");
  std::vector<SweepPoint> points;
  points.reserve(sigs.size() * cfgs.size());
  for (const auto& cfg : cfgs) {
    for (const auto& sig : sigs) {
      points.push_back(SweepPoint{&m, &sig, cfg});
    }
  }
  return run_batch(points);
}

// ---------------------------------------------------------- counters --

EngineCounters SweepEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters out;
  out.requests = requests_;
  out.simulations = simulations_;
  out.simulators_built = simulators_built_;
  out.batches = batches_;
  const CacheStats cs = cache_.stats();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  out.cache_entries = cs.entries;
  return out;
}

void SweepEngine::clear_cache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  sims_.clear();
}

SweepEngine& shared_engine() {
  static SweepEngine* eng = new SweepEngine();  // never destroyed
  return *eng;
}

}  // namespace sgp::engine
