#include "obs/metrics.hpp"

#include "obs/json.hpp"

namespace sgp::obs {

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: outlives atexit hooks
  return *r;
}

Registry& registry() { return Registry::instance(); }

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

void Registry::gauge_callback(const std::string& name,
                              std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauge_callbacks_[name] = std::move(fn);
}

MetricsSnapshot Registry::snapshot() const {
  // Callbacks may themselves touch the registry (register a counter on
  // first use), so collect them under the lock but invoke them outside.
  std::vector<std::pair<std::string, std::function<double()>>> callbacks;
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      out.counters.emplace_back(name, c.value());
    }
    out.gauges.reserve(gauges_.size() + gauge_callbacks_.size());
    for (const auto& [name, g] : gauges_) {
      out.gauges.emplace_back(name, g.value());
    }
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot hs;
      hs.name = name;
      hs.count = h.count();
      hs.sum = h.sum();
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        const std::uint64_t n = h.bucket(i);
        if (n > 0) hs.buckets.emplace_back(Histogram::bucket_floor(i), n);
      }
      out.histograms.push_back(std::move(hs));
    }
    callbacks.reserve(gauge_callbacks_.size());
    for (const auto& [name, fn] : gauge_callbacks_) {
      callbacks.emplace_back(name, fn);
    }
  }
  for (const auto& [name, fn] : callbacks) {
    out.gauges.emplace_back(name, fn());
  }
  return out;
}

std::string Registry::to_json(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    out += "    " + json_quote(name) + ": " + json_number(v);
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    out += "    " + json_quote(name) + ": " + json_number(v);
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    out += "    " + json_quote(h.name) + ": {\"count\": " +
           json_number(h.count) + ", \"sum\": " + json_number(h.sum) +
           ", \"buckets\": [";
    bool bfirst = true;
    for (const auto& [floor, n] : h.buckets) {
      if (!bfirst) out += ", ";
      out += "[";
      out += json_number(floor);
      out += ", ";
      out += json_number(n);
      out += "]";
      bfirst = false;
    }
    out += "]}";
    first = false;
  }
  out += first ? "}" : "\n  }";
  out += "\n}";
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
  gauge_callbacks_.clear();
}

}  // namespace sgp::obs
