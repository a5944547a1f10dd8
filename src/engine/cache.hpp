// Content-addressed memoization cache for simulator results. Keys are
// fingerprint triples (see engine/fingerprint.hpp); values are complete
// TimeBreakdowns, so a hit reproduces the original miss exactly —
// including the `serving` level and the note fields.
//
// One flat open-addressing table: a power-of-two array of entry
// positions, probed linearly from each key's home slot, over the
// {CacheKey, Entry} records in insertion order. Keys are erased only by
// clear(), so no tombstones are needed. The cache is single-threaded:
// its owner (SweepEngine) calls it under the engine's one mutex.
//
// The records live in a std::deque, not in the probed array itself,
// so growth reallocates only the 4-byte slots. An array of whole
// 88-byte records, doubled on growth, raised glibc's adaptive mmap
// threshold; later arrays of that size then came from the heap and
// stayed resident, doubling sgp-serve's peak RSS on perfbench
// serve_mixed (24 -> 48 MiB, x86-64).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace sgp::engine {

/// One evaluation point: (machine, kernel signature, SimConfig).
struct CacheKey {
  std::uint64_t machine = 0;
  std::uint64_t signature = 0;
  std::uint64_t config = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    // The components are already mixed fingerprints; multiply by
    // distinct odd constants so (a,b,c) and (b,a,c) land apart.
    std::uint64_t h = k.machine * 0x9e3779b97f4a7c15ull;
    h ^= k.signature * 0xc2b2ae3d27d4eb4full;
    h ^= k.config * 0x165667b19e3779f9ull;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
};

class SimCache {
 public:
  /// Batched lookup. For every present key it writes the value to
  /// results[i] and sets hit[i] = 1; absent keys leave results[i]
  /// untouched and hit[i] = 0. Every key counts as one hit or one miss.
  /// All three spans must have the same length.
  void lookup_batch(std::span<const CacheKey> keys,
                    std::span<sim::TimeBreakdown> results,
                    std::span<std::uint8_t> hit);

  /// Stores a freshly-computed entry, keeping the stored value when the
  /// key is already present (a key asked for twice in one batch is
  /// priced twice, with identical values). No effect on the hit/miss
  /// statistics.
  void insert(const CacheKey& key, const sim::TimeBreakdown& value);

  void clear();
  CacheStats stats() const;

 private:
  struct Entry {
    CacheKey key;
    sim::TimeBreakdown value;
  };

  /// Slot index a key's probe starts at: the top bits of its hash
  /// times the golden ratio, so keys that share low hash bits spread.
  std::size_t home(const CacheKey& key) const noexcept {
    return static_cast<std::size_t>(
        (CacheKeyHash{}(key) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding `key`, or the empty slot that ends its probe.
  /// The index must not be empty.
  std::uint32_t& slot_of(const CacheKey& key);
  /// The entry for `key`, or nullptr.
  const Entry* find(const CacheKey& key);
  /// Doubles the index (or allocates the first one) and refills it.
  void grow();

  std::deque<Entry> entries_;  ///< insertion order; never moved
  /// 0 = empty, else entry position + 1. Empty or a power-of-two size,
  /// at most half full.
  std::vector<std::uint32_t> index_;
  int shift_ = 64;  ///< 64 - log2(index_.size())
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Process-wide mirrors of the per-instance statistics, aggregated
  /// over every SimCache in the obs registry ("engine.cache.*"), so a
  /// metrics snapshot carries the cache story without asking each
  /// engine. Per-instance stats() remains the A/B accounting tool.
  obs::Counter& obs_hits_ =
      obs::registry().counter("engine.cache.hits");
  obs::Counter& obs_misses_ =
      obs::registry().counter("engine.cache.misses");
};

}  // namespace sgp::engine
