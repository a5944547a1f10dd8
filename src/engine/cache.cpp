#include "engine/cache.hpp"

namespace sgp::engine {

void SimCache::count_hit(Entry& e) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  obs_hits_.add();
  if (tracking() && e.from_disk) {
    persist_hits_.fetch_add(1, std::memory_order_relaxed);
    obs_persist_hits_.add();
    if (!e.resume_counted) {
      e.resume_counted = true;
      persist_resumed_.fetch_add(1, std::memory_order_relaxed);
      obs_persist_resumed_.add();
    }
  }
}

void SimCache::lookup_batch(std::span<const CacheKey> keys,
                            std::span<sim::TimeBreakdown> results,
                            std::span<std::uint8_t> hit) {
  // Bucket the batch by shard so each shard's mutex is taken once.
  std::array<std::vector<std::size_t>, kShards> buckets;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    buckets[shard_index(keys[i])].push_back(i);
  }
  std::uint64_t misses = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const std::size_t i : buckets[s]) {
      const auto it = shard.map.find(keys[i]);
      if (it == shard.map.end()) {
        hit[i] = 0;
        ++misses;
        continue;
      }
      count_hit(it->second);
      results[i] = it->second.value;
      hit[i] = 1;
    }
  }
  if (misses > 0) {
    misses_.fetch_add(misses, std::memory_order_relaxed);
    obs_misses_.add(misses);
    if (tracking()) {
      persist_misses_.fetch_add(misses, std::memory_order_relaxed);
      obs_persist_misses_.add(misses);
    }
  }
}

void SimCache::insert_batch(std::span<const CacheKey> keys,
                            std::span<const sim::TimeBreakdown> values) {
  std::array<std::vector<std::size_t>, kShards> buckets;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    buckets[shard_index(keys[i])].push_back(i);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t queued = 0;
    for (const std::size_t i : buckets[s]) {
      const auto [it, inserted] =
          shard.map.emplace(keys[i], Entry{values[i], false, false});
      (void)it;
      if (inserted && tracking()) {
        shard.fresh.push_back(keys[i]);
        ++queued;
      }
    }
    // Under the lock: a concurrent drain_fresh subtracts the vector
    // size it saw, so the counter and the queue must move together.
    if (queued > 0) {
      fresh_count_.fetch_add(queued, std::memory_order_relaxed);
    }
  }
}

void SimCache::insert_loaded(const CacheKey& key,
                             const sim::TimeBreakdown& value) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mu);
  s.map.emplace(key, Entry{value, true, false});
}

std::vector<std::pair<CacheKey, sim::TimeBreakdown>> SimCache::drain_fresh() {
  std::vector<std::pair<CacheKey, sim::TimeBreakdown>> out;
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const CacheKey& key : s.fresh) {
      const auto it = s.map.find(key);
      // clear() may have raced the queue away; skip silently — a
      // dropped entry simply recomputes next time.
      if (it != s.map.end()) out.emplace_back(key, it->second.value);
    }
    fresh_count_.fetch_sub(s.fresh.size(), std::memory_order_relaxed);
    s.fresh.clear();
  }
  return out;
}

void SimCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    fresh_count_.fetch_sub(s.fresh.size(), std::memory_order_relaxed);
    s.fresh.clear();
    s.map.clear();
  }
}

CacheStats SimCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.entries += s.map.size();
  }
  return out;
}

CachePersistStats SimCache::persist_stats() const {
  CachePersistStats out;
  out.hits = persist_hits_.load(std::memory_order_relaxed);
  out.misses = persist_misses_.load(std::memory_order_relaxed);
  out.resumed_points = persist_resumed_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sgp::engine
