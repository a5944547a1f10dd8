#include "layers.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

/// The layer a span belongs to; empty for pool.chunk, whose work belongs
/// to the layer that dispatched it.
std::string layer_of(const std::string& name) {
  auto starts = [&](const char* p) { return name.rfind(p, 0) == 0; };
  if (name == kOpSpan) return "bench";
  if (starts(kExperimentsPrefix) || starts("phase:")) return "experiments";
  if (name == kRenderSpan) return "report";
  if (starts("SweepEngine::persist_")) return "persist";
  if (name == kEngineLifecycleSpan || starts("SweepEngine::")) {
    return "engine";
  }
  if (starts("Simulator::")) return "sim";
  if (name == "pool.chunk") return {};
  if (starts("ThreadPool::")) return "pool";
  if (name == "cachesim.replay") return "cachesim";
  if (name == kCheckSpan) return "check";
  if (starts("serve.")) return "serve";
  return "other";
}

}  // namespace

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names{
      "experiments", "report", "engine",  "persist", "sim", "pool",
      "cachesim",    "check",  "serve",   "other",   "bench"};
  return names;
}

void LayerProfile::begin() {
  obs::tracer().clear();
  before_ = Snapshot::take();
  obs::tracer().enable();
}

void LayerProfile::end(double wall_ms, std::uint64_t ops) {
  obs::tracer().disable();
  const Snapshot after = Snapshot::take();
  for (const auto& [name, value] : after.snap.counters) {
    counters_[name] += value - before_.counter(name);
  }
  for (const auto& h : after.snap.histograms) {
    auto& acc = hist_[h.name];
    for (const auto& [floor, count] : h.buckets) acc[floor] += count;
    for (const auto& [floor, count] : before_.histogram(h.name)) {
      acc[floor] -= count;
    }
    const auto [c0, s0] = before_.histogram_count_sum(h.name);
    hist_cs_[h.name].first += h.count - c0;
    hist_cs_[h.name].second += h.sum - s0;
  }
  fold_spans();
  wall_ms_ += wall_ms;
  ops_ += ops;
}

void LayerProfile::fold_spans() {
  const std::vector<obs::SpanEvent> events = obs::tracer().events();
  obs::tracer().clear();

  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) index[events[i].id] = i;
  std::vector<std::vector<std::size_t>> children(events.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto it = index.find(events[i].parent);
    if (events[i].parent == 0 || it == index.end()) {
      roots.push_back(i);
    } else {
      children[it->second].push_back(i);
    }
  }

  // Self time is a span's duration minus the union of its children's
  // intervals. Along the blocking path, children that ran in parallel
  // share the covered interval in proportion to their durations, so a
  // root's attributed times sum to exactly its duration. `owner` is the
  // nearest enclosing layer other than pool: a pool.chunk's own time is
  // the dispatching layer's work.
  const std::function<void(std::size_t, double, const std::string&)> visit =
      [&](std::size_t i, double weight, const std::string& owner) {
        const obs::SpanEvent& e = events[i];
        std::string layer = layer_of(e.name);
        if (layer.empty()) layer = owner.empty() ? "other" : owner;
        const double s = e.start_us;
        const double f = e.start_us + e.dur_us;
        std::vector<std::pair<double, double>> iv;
        double child_sum = 0.0;
        for (const std::size_t c : children[i]) {
          const double cs = std::max(s, events[c].start_us);
          const double cf = std::min(f, events[c].start_us + events[c].dur_us);
          if (cf <= cs) continue;
          iv.emplace_back(cs, cf);
          child_sum += cf - cs;
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double run_s = 0.0;
        double run_f = -1.0;
        for (const auto& [a, b] : iv) {
          if (a > run_f) {
            if (run_f > run_s) covered += run_f - run_s;
            run_s = a;
            run_f = b;
          } else {
            run_f = std::max(run_f, b);
          }
        }
        if (run_f > run_s) covered += run_f - run_s;
        const double self_ms = std::max(0.0, e.dur_us - covered) / 1000.0;

        NameTotals& t = by_name_[e.name];
        t.dur_ms += e.dur_us / 1000.0;
        t.self_ms += self_ms;
        busy_self_[layer] += self_ms;
        path_[layer] += self_ms * weight;
        if (e.name == "pool.chunk" && layer == "engine") {
          pool_chunk_self_engine_ms_ += self_ms;
        }
        const double w = child_sum > 0.0 ? weight * covered / child_sum : 0.0;
        const std::string& next_owner = layer == "pool" ? owner : layer;
        for (const std::size_t c : children[i]) visit(c, w, next_owner);
      };
  for (const std::size_t r : roots) visit(r, 1.0, "");
}

void LayerProfile::emit(int jobs, const LayerExtras& x, Report& rep) const {
  const double n = static_cast<double>(std::max<std::uint64_t>(ops_, 1));
  const std::string per_op = "per op, " + std::to_string(ops_) + " ops";
  auto counter = [&](const std::string& name) -> double {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto name_of = [&](const std::string& name) -> NameTotals {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? NameTotals{} : it->second;
  };
  auto at = [](const std::map<std::string, double>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto count = [&](const std::string& metric, const std::string& source) {
    rep.layer(metric, counter(source) / n, "count", per_op);
  };
  auto bucket = [&](const std::string& metric, const std::string& hist,
                    double q) {
    const auto it = hist_.find(hist);
    const BucketBound b =
        it == hist_.end() ? BucketBound{} : bucket_quantile(it->second, q);
    rep.layer(metric, static_cast<double>(b.hi), "ns_bucket_hi",
              "log2 bucket [" + std::to_string(b.lo) + ", " +
                  std::to_string(b.hi) + ") of " +
                  std::to_string(b.samples) + " samples");
  };

  // experiments / report
  rep.layer("experiments.self_ms", at(busy_self_, "experiments") / n, "ms",
            per_op);
  rep.layer("report.render_ms", name_of(kRenderSpan).dur_ms / n, "ms",
            per_op);

  // engine
  count("engine.requests", "engine.requests");
  count("engine.simulations", "engine.simulations");
  const double hits = counter("engine.cache.hits");
  const double lookups = hits + counter("engine.cache.misses");
  rep.layer("engine.hit_ratio", ratio(hits, lookups), "ratio",
            "base " + fmt_num(lookups) + " memo lookups");
  rep.layer("engine.run_batch_self_ms",
            (name_of("SweepEngine::run_batch").self_ms +
             name_of("SweepEngine::run_grid").self_ms +
             pool_chunk_self_engine_ms_) /
                n,
            "ms", per_op);

  // persist
  rep.layer("persist.load_ms", name_of("SweepEngine::persist_load").dur_ms / n,
            "ms", per_op);
  rep.layer("persist.segments_loaded", x.segments_loaded_per_op, "count",
            "per op");
  count("persist.entries_loaded", "persist.entries_loaded");
  rep.layer("persist.flush_ms",
            name_of("SweepEngine::persist_flush").dur_ms / n, "ms", per_op);
  count("persist.flushes", "persist.flushes");
  rep.layer("persist.segment_files", x.segment_files, "count", "end of run");

  // sim
  const double batch_points = counter("sim.batch.points");
  const double batch_ms = name_of("Simulator::run_batch").dur_ms;
  rep.layer("sim.batch_points", batch_points / n, "count", per_op);
  rep.layer("sim.batch_ms", batch_ms / n, "ms", per_op);
  rep.layer("sim.batch_ns_per_point", ratio(batch_ms * 1e6, batch_points),
            "ns", "base " + fmt_num(batch_points) + " points");
  count("sim.scalar_runs", "sim.runs");
  bucket("sim.run_ns_p50", "sim.run_ns", 0.5);

  // threading
  count("pool.dispatches", "pool.dispatches");
  count("pool.chunks", "pool.chunks");
  bucket("pool.chunk_ns_p50", "pool.chunk_ns", 0.5);
  rep.layer("pool.utilisation",
            ratio(counter("pool.busy_ns") / 1e6, wall_ms_ * jobs), "ratio",
            "busy over wall x " + std::to_string(jobs) + " jobs");

  // cachesim
  rep.layer("cachesim.replay_ms", name_of("cachesim.replay").dur_ms / n, "ms",
            per_op);
  count("cachesim.replays", "cachesim.replays");
  count("cachesim.accesses_simulated", "cachesim.accesses_simulated");
  const double simulated = counter("cachesim.accesses_simulated");
  rep.layer("cachesim.coalesce_ratio",
            ratio(counter("cachesim.accesses_coalesced"), simulated), "ratio",
            "coalesced over base " + fmt_num(simulated) + " simulated");
  count("cachesim.reps_skipped", "cachesim.reps_skipped");

  // check
  double points = 0.0;
  for (const auto& [name, value] : counters_) {
    if (name.rfind("check.", 0) == 0 && name.size() > 7 &&
        name.compare(name.size() - 7, 7, ".points") == 0) {
      points += static_cast<double>(value);
    }
  }
  rep.layer("check.points", points / n, "count", per_op);
  rep.layer("check.points_per_s", ratio(points, wall_ms_ / 1000.0), "1/s",
            "over traced wall");

  // serve
  rep.layer("serve.parse_us_p50", x.parse_us_p50, "us",
            std::to_string(x.parse_samples) + " exact samples");
  rep.layer("serve.batch_ms", name_of("serve.batch").dur_ms / n, "ms", per_op);
  rep.layer("serve.evaluate_ms", name_of("serve.evaluate").dur_ms / n, "ms",
            per_op);
  const auto bcs = hist_cs_.find("serve.batch_requests");
  const double batches =
      bcs == hist_cs_.end() ? 0.0 : static_cast<double>(bcs->second.first);
  rep.layer("serve.batch_requests_mean",
            bcs == hist_cs_.end()
                ? 0.0
                : ratio(static_cast<double>(bcs->second.second), batches),
            "count", "base " + fmt_num(batches) + " batches");
  count("serve.coalesced", "serve.coalesced");
  count("serve.points", "serve.points");
  bucket("serve.request_ns_p99", "serve.request_ns", 0.99);
  rep.layer("serve.rejected_overload",
            static_cast<double>(x.rejected_overload), "count", "whole run");
  rep.layer("serve.gen_late_p99_ms", x.gen_late_p99_ms, "ms",
            std::to_string(x.gen_late_samples) + " exact samples");

  // blocking path: per-layer self time along the operation's critical
  // path; the gap is traced wall time no layer span covers.
  double covered = 0.0;
  for (const auto& layer : layer_names()) {
    if (layer == "bench") continue;
    const double v = at(path_, layer);
    covered += v;
    rep.layer("path." + layer + "_ms", v / n, "ms", per_op);
  }
  rep.layer("path.wall_ms", wall_ms_ / n, "ms", per_op);
  rep.layer("path.gap_ms", (wall_ms_ - covered) / n, "ms", per_op);
}

}  // namespace perfbench
