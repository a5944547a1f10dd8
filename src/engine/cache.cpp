#include "engine/cache.hpp"

#include <algorithm>
#include <bit>

namespace sgp::engine {

namespace {

/// Fewest slots an index has.
constexpr std::size_t kInitialSlots = 64;

}  // namespace

std::uint32_t SimCache::probe(const CacheKey& key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i] != 0 && entries_[index_[i] - 1].key != key) {
    i = (i + 1) & mask;
  }
  return static_cast<std::uint32_t>(i);
}

void SimCache::rehash(std::size_t slots) {
  index_.assign(slots, 0);
  shift_ = 64 - std::countr_zero(slots);
  const std::size_t mask = slots - 1;
  for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
    std::size_t i = home(entries_[pos].key);
    while (index_[i] != 0) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(pos + 1);
  }
}

void SimCache::lookup_batch(std::span<const CacheKey> keys,
                            std::span<sim::TimeBreakdown> results,
                            std::span<std::uint8_t> hit,
                            std::span<std::uint32_t> slot) {
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    hit[i] = 0;
    if (index_.empty()) continue;
    slot[i] = probe(keys[i]);
    const std::uint32_t e = index_[slot[i]];
    if (e == 0) continue;
    hit[i] = 1;
    ++hits;
    results[i] = entries_[e - 1].value;
  }
  const std::uint64_t misses = keys.size() - hits;
  hits_ += hits;
  misses_ += misses;
  if (hits > 0) obs_hits_.add(hits);
  if (misses > 0) obs_misses_.add(misses);

  // Room for every miss at most half full, so probes stay short and
  // always end. A rehash moves every probe's end, so the misses probe
  // again, once, in the new index.
  const std::size_t need = 2 * (entries_.size() + misses);
  if (need <= index_.size()) return;
  rehash(std::bit_ceil(std::max(kInitialSlots, need)));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!hit[i]) slot[i] = probe(keys[i]);
  }
}

void SimCache::insert(const CacheKey& key, std::uint32_t slot,
                      const sim::TimeBreakdown& value) {
  // Every slot from the key's home to `slot` held another key at lookup
  // time and still does (nothing is erased between lookup and insert),
  // so probing on from `slot` finds what a probe from home would: the
  // key itself, stored since by an earlier insert of this batch, or the
  // empty slot that ends its probe now.
  const std::size_t mask = index_.size() - 1;
  std::size_t i = slot;
  for (; index_[i] != 0; i = (i + 1) & mask) {
    if (entries_[index_[i] - 1].key == key) return;
  }
  entries_.push_back(Entry{key, value});
  index_[i] = static_cast<std::uint32_t>(entries_.size());
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
