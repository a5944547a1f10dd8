// Process-wide metrics registry: the single place every subsystem
// (simulator, sweep engine, memo cache, thread pool)
// publishes its counts, so one snapshot describes a whole run.
//
// Design rules:
//   * the hot path is lock-free — Counter::add and Histogram::observe
//     are single relaxed atomic RMWs; registration (name lookup) takes
//     a mutex but happens once per call site, which then holds a
//     stable reference;
//   * metrics are process-wide aggregates. Two SimCaches incrementing
//     "engine.cache.hits" add into the same counter; per-instance
//     accounting (the engine's A/B counters) stays with the instance;
//   * metrics are never destroyed, so cached references stay valid for
//     the life of the process. reset() zeroes values in place.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sgp::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed log2-bucket histogram over non-negative integer samples
/// (typically nanoseconds). Bucket 0 holds the value 0; bucket i >= 1
/// holds [2^(i-1), 2^i); the last bucket absorbs everything above.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index a sample lands in.
  static int bucket_of(std::uint64_t v) noexcept {
    if (v == 0) return 0;
    const int b = std::bit_width(v);  // 1 for v=1, 2 for v in [2,3], ...
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Inclusive lower bound of bucket `i`.
  static std::uint64_t bucket_floor(int i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One histogram, flattened for export (only non-empty buckets).
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// (inclusive bucket floor, sample count) for each non-empty bucket,
  /// in ascending floor order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Point-in-time copy of every registered metric, name-sorted (the
/// registry stores names in a std::map), so two snapshots of the same
/// state render identically.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::uint64_t counter_or(std::string_view name,
                           std::uint64_t fallback = 0) const;
};

class Registry {
 public:
  /// The process-wide registry (never destroyed).
  static Registry& instance();

  /// Finds or creates; the returned reference is valid forever.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// A pull gauge: `fn` is invoked at snapshot time. Re-registering a
  /// name replaces the callback (the engine's tests re-register on a
  /// fresh engine).
  void gauge_callback(const std::string& name,
                      std::function<double()> fn);

  MetricsSnapshot snapshot() const;

  /// JSON object {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} for --metrics files and manifests.
  static std::string to_json(const MetricsSnapshot& snap);

  /// Zeroes every counter/gauge/histogram in place and drops gauge
  /// callbacks. References handed out earlier remain valid.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // node-based maps: values never move once created.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::function<double()>> gauge_callbacks_;
};

/// Shorthand for Registry::instance().
Registry& registry();

}  // namespace sgp::obs
