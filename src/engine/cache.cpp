#include "engine/cache.hpp"

#include <algorithm>
#include <bit>

namespace sgp::engine {

namespace {

/// Slots of the first index.
constexpr std::size_t kInitialSlots = 64;

}  // namespace

std::uint32_t& SimCache::slot_of(const CacheKey& key) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    std::uint32_t& slot = index_[i];
    if (slot == 0 || entries_[slot - 1].key == key) return slot;
  }
}

const SimCache::Entry* SimCache::find(const CacheKey& key) {
  if (index_.empty()) return nullptr;
  const std::uint32_t slot = slot_of(key);
  return slot == 0 ? nullptr : &entries_[slot - 1];
}

void SimCache::grow() {
  index_.assign(std::max(kInitialSlots, 2 * index_.size()), 0);
  shift_ = 64 - std::countr_zero(index_.size());
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    std::size_t i = home(entries_[pos].key);
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(pos + 1);
  }
}

void SimCache::lookup_batch(std::span<const CacheKey> keys,
                            std::span<sim::TimeBreakdown> results,
                            std::span<std::uint8_t> hit) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Entry* e = find(keys[i]);
    hit[i] = e != nullptr;
    if (!e) continue;
    ++hits;
    results[i] = e->value;
  }
  const std::uint64_t misses = keys.size() - hits;
  hits_ += hits;
  misses_ += misses;
  if (hits > 0) obs_hits_.add(hits);
  if (misses > 0) obs_misses_.add(misses);
}

void SimCache::insert(const CacheKey& key, const sim::TimeBreakdown& value) {
  // At most half full, so probes stay short and always end.
  if ((entries_.size() + 1) * 2 > index_.size()) grow();
  std::uint32_t& slot = slot_of(key);
  if (slot != 0) return;
  entries_.push_back(Entry{key, value});
  slot = static_cast<std::uint32_t>(entries_.size());
}

void SimCache::clear() {
  entries_.clear();
  index_ = {};
  shift_ = 64;
}

CacheStats SimCache::stats() const {
  return {hits_, misses_, entries_.size()};
}

}  // namespace sgp::engine
