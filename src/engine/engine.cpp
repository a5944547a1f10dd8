#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/eval_context.hpp"

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

SweepEngine::SweepEngine(EngineOptions opt) : use_cache_(opt.use_cache) {
  if (!opt.persist || !use_cache_) return;
  store_ = std::make_unique<PersistentStore>(opt.persist->store);
  flush_min_entries_ = std::max<std::size_t>(1, opt.persist->flush_min_entries);
  cache_.set_persist_tracking(true);
  {
    const obs::Span span("SweepEngine::persist_load");
    store_->load([&](std::span<const std::byte> payload) {
      if (const auto entry = decode_cache_entry(payload)) {
        cache_.insert_loaded(entry->first, entry->second);
      } else {
        // The frame verified but the payload is not a cache entry this
        // build understands — count it and move on, never abort.
        ++undecodable_entries_;
        obs::registry().counter("persist.undecodable_entries").add();
      }
    });
  }
}

SweepEngine::~SweepEngine() {
  if (store_) {
    // Best-effort final checkpoint; persistence failures must never
    // take down a process that computed its results successfully.
    try {
      flush_persistent();
    } catch (...) {
    }
  }
}

bool SweepEngine::flush_persistent() {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_locked();
}

bool SweepEngine::flush_locked() {
  if (!store_ || pending_.empty()) return true;
  const obs::Span span("SweepEngine::persist_flush");
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(pending_.size());
  for (const auto& [key, value] : pending_) {
    payloads.push_back(encode_cache_entry(key, value));
  }
  if (!store_->append(payloads)) return false;  // entries stay queued
  pending_.clear();
  return true;
}

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

  // Group the batch by (machine, signature) identity: the expensive
  // fingerprint prefix (machine_fingerprint walks every descriptor
  // field, signature_fingerprint ~30 fields) is computed once per
  // group, so each point only hashes its SimConfig.
  struct Group {
    const machine::MachineDescriptor* machine = nullptr;
    const core::KernelSignature* signature = nullptr;
    const sim::Simulator* simulator = nullptr;
    std::uint64_t machine_fp = 0;
    std::uint64_t signature_fp = 0;
    std::vector<std::size_t> miss;  ///< result indices left to price
  };
  struct MachineEntry {
    const machine::MachineDescriptor* machine;
    std::uint64_t fp;
    const sim::Simulator* simulator;
  };
  std::vector<Group> groups;
  std::vector<MachineEntry> machines;
  std::vector<std::uint32_t> point_group(points.size());
  std::vector<CacheKey> keys(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    // Batches come from grids: the same few (machine, signature) pairs
    // repeat point after point, so a linear scan beats hashing.
    std::size_t g = groups.size();
    for (std::size_t j = 0; j < groups.size(); ++j) {
      if (groups[j].machine == p.machine &&
          groups[j].signature == p.signature) {
        g = j;
        break;
      }
    }
    if (g == groups.size()) {
      Group group;
      group.machine = p.machine;
      group.signature = p.signature;
      std::size_t me = machines.size();
      for (std::size_t j = 0; j < machines.size(); ++j) {
        if (machines[j].machine == p.machine) {
          me = j;
          break;
        }
      }
      if (me == machines.size()) {
        const std::uint64_t fp = machine_fingerprint(*p.machine);
        const auto [it, built] = sims_.try_emplace(fp, *p.machine);
        if (built) {
          ++simulators_built_;
          EngineMetrics::get().simulators_built.add();
        }
        machines.push_back(MachineEntry{p.machine, fp, &it->second});
      }
      group.machine_fp = machines[me].fp;
      group.simulator = machines[me].simulator;
      group.signature_fp = signature_fingerprint(*p.signature);
      groups.push_back(std::move(group));
    }
    point_group[i] = static_cast<std::uint32_t>(g);
    keys[i] = CacheKey{groups[g].machine_fp, groups[g].signature_fp,
                       config_fingerprint(p.config)};
  }

  std::vector<std::uint8_t> hit(points.size(), 0);
  if (use_cache_) {
    cache_.lookup_batch(keys, results, hit);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!hit[i]) groups[point_group[i]].miss.push_back(i);
  }

  // Price each group's misses through one EvalContext and one
  // sim::Simulator::run_batch. A key asked for twice is priced twice
  // (identical values) but stored and queued for the store once.
  std::vector<sim::SimConfig> cfgs;
  std::vector<sim::TimeBreakdown> outs;
  for (const Group& g : groups) {
    if (g.miss.empty()) continue;
    sim::EvalContext ctx(*g.simulator, *g.signature);
    cfgs.clear();
    for (const std::size_t i : g.miss) cfgs.push_back(points[i].config);
    outs.resize(cfgs.size());
    g.simulator->run_batch(ctx, cfgs, outs);
    simulations_ += cfgs.size();
    EngineMetrics::get().simulations.add(cfgs.size());
    for (std::size_t k = 0; k < g.miss.size(); ++k) {
      const std::size_t i = g.miss[k];
      results[i] = outs[k];
      if (use_cache_ && cache_.insert(keys[i], outs[k]) && store_) {
        pending_.emplace_back(keys[i], outs[k]);
      }
    }
  }
  if (store_ && pending_.size() >= flush_min_entries_) flush_locked();
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
  if (store_) {
    out.persist.enabled = true;
    out.persist.store = store_->stats();
    out.persist.cache = cache_.persist_stats();
    out.persist.undecodable_entries = undecodable_entries_;
    out.persist.pending_entries = pending_.size();
  }
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
