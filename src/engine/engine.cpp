#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/eval_context.hpp"
#include "threading/pool.hpp"

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

SweepEngine::SweepEngine(EngineOptions opt)
    : jobs_(threading::recommended_jobs(opt.jobs)),
      use_cache_(opt.use_cache) {
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
        undecodable_entries_.fetch_add(1, std::memory_order_relaxed);
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
  if (!store_) return true;
  std::lock_guard<std::mutex> lock(flush_mu_);
  auto fresh = cache_.drain_fresh();
  pending_.insert(pending_.end(),
                  std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
  pending_count_.store(pending_.size(), std::memory_order_relaxed);
  if (pending_.empty()) return true;
  const obs::Span span("SweepEngine::persist_flush");
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(pending_.size());
  for (const auto& [key, value] : pending_) {
    payloads.push_back(encode_cache_entry(key, value));
  }
  if (!store_->append(payloads)) return false;  // entries stay queued
  pending_.clear();
  pending_count_.store(0, std::memory_order_relaxed);
  return true;
}

void SweepEngine::maybe_flush() {
  if (!store_) return;
  if (cache_.fresh_entries() +
          pending_count_.load(std::memory_order_relaxed) >=
      flush_min_entries_) {
    flush_persistent();
  }
}

void SweepEngine::set_jobs(int jobs) {
  const int resolved = threading::recommended_jobs(jobs);
  if (resolved == jobs_) return;
  jobs_ = resolved;
  pool_.reset();  // re-created lazily at the next batch
}

const sim::Simulator& SweepEngine::simulator_for(
    const machine::MachineDescriptor& m, std::uint64_t machine_fp) {
  std::lock_guard<std::mutex> lock(sims_mu_);
  auto it = sims_.find(machine_fp);
  if (it == sims_.end()) {
    it = sims_.emplace(machine_fp, std::make_unique<sim::Simulator>(m))
             .first;
    simulators_built_.fetch_add(1, std::memory_order_relaxed);
    EngineMetrics::get().simulators_built.add();
  }
  return *it->second;
}

std::vector<sim::TimeBreakdown> SweepEngine::run_batch(
    std::span<const SweepPoint> points) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::get().batches.add();
  const obs::Span span("SweepEngine::run_batch");
  std::vector<sim::TimeBreakdown> results(points.size());
  if (points.empty()) return results;

  requests_.fetch_add(points.size(), std::memory_order_relaxed);
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
        machines.push_back(
            MachineEntry{p.machine, fp, &simulator_for(*p.machine, fp)});
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

  // One lock acquisition per shard for the whole batch, instead of one
  // per point.
  std::vector<std::uint8_t> hit(points.size(), 0);
  if (use_cache_) {
    cache_.lookup_batch(keys, results, hit);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!hit[i]) groups[point_group[i]].miss.push_back(i);
  }

  // Price the misses through sim::Simulator::run_batch, one EvalContext
  // per task so workers share nothing mutable. Large groups are split
  // into chunks so a single-group grid still spreads over the pool.
  struct Task {
    std::size_t group;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Task> tasks;
  std::size_t misses = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    misses += groups[g].miss.size();
    for (std::size_t b = 0; b < groups[g].miss.size(); b += kPriceChunk) {
      tasks.push_back(
          Task{g, b, std::min(b + kPriceChunk, groups[g].miss.size())});
    }
  }

  auto price_task = [&](const Task& t) {
    const Group& g = groups[t.group];
    const std::size_t len = t.end - t.begin;
    sim::EvalContext ctx(*g.simulator, *g.signature);
    std::vector<sim::SimConfig> cfgs(len);
    std::vector<sim::TimeBreakdown> outs(len);
    std::vector<CacheKey> miss_keys(len);
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t i = g.miss[t.begin + k];
      cfgs[k] = points[i].config;
      miss_keys[k] = keys[i];
    }
    g.simulator->run_batch(ctx, cfgs, outs);
    simulations_.fetch_add(len, std::memory_order_relaxed);
    EngineMetrics::get().simulations.add(len);
    for (std::size_t k = 0; k < len; ++k) {
      results[g.miss[t.begin + k]] = outs[k];
    }
    if (use_cache_) cache_.insert_batch(miss_keys, outs);
  };

  // Waking the pool for less than one full task per worker costs more
  // than it spreads, so small batches stay on the calling thread.
  if (jobs_ == 1 ||
      misses < static_cast<std::size_t>(jobs_) * kPriceChunk) {
    for (const Task& t : tasks) price_task(t);
  } else {
    // The pool's job slot is single-occupancy, so concurrent run_batch
    // callers serialize here (cache lookups above stay concurrent).
    std::lock_guard<std::mutex> pool_lock(pool_mu_);
    if (!pool_) pool_ = std::make_unique<threading::ThreadPool>(jobs_);
    // Grain 1: tasks have irregular cost (group sizes and thread counts
    // vary wildly across a grid). Rethrows the first exception after
    // the join; results are discarded in that case.
    pool_->parallel_for_dynamic(
        tasks.size(), 1,
        [&](std::size_t begin, std::size_t end, int /*worker*/) {
          for (std::size_t i = begin; i < end; ++i) {
            price_task(tasks[i]);
          }
        });
  }
  maybe_flush();
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
  EngineCounters out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.simulations = simulations_.load(std::memory_order_relaxed);
  out.simulators_built =
      simulators_built_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  const CacheStats cs = cache_.stats();
  out.cache_hits = cs.hits;
  out.cache_misses = cs.misses;
  out.cache_entries = cs.entries;
  if (store_) {
    out.persist.enabled = true;
    {
      // The store's stats change inside append(), under flush_mu_.
      std::lock_guard<std::mutex> lock(flush_mu_);
      out.persist.store = store_->stats();
    }
    out.persist.cache = cache_.persist_stats();
    out.persist.undecodable_entries =
        undecodable_entries_.load(std::memory_order_relaxed);
    out.persist.pending_entries =
        pending_count_.load(std::memory_order_relaxed) +
        cache_.fresh_entries();
  }
  return out;
}

void SweepEngine::clear_cache() {
  cache_.clear();
  std::lock_guard<std::mutex> lock(sims_mu_);
  sims_.clear();
}

SweepEngine& shared_engine() {
  static SweepEngine* eng = new SweepEngine();  // never destroyed
  return *eng;
}

}  // namespace sgp::engine
