#include "check/invariants.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <sstream>
#include <string_view>
#include <utility>

#include "cachesim/replay.hpp"
#include "cachesim/trace.hpp"
#include "machine/placement.hpp"
#include "obs/metrics.hpp"
#include "sim/cache_model.hpp"
#include "sim/roofline.hpp"
#include "threading/pool.hpp"

namespace sgp::check {

namespace {

/// Relative slack on bounds that are exact in the model; guards
/// floating-point rounding only.
constexpr double kRelTol = 1e-6;
/// Allowed overshoot of the scalar floor (matches the calibration
/// headroom sim_properties_test grants the paper machines).
constexpr double kScalarFloorSlack = 0.05;
/// Iteration/working-set factor for size-monotonicity. Must exceed the
/// largest bandwidth ratio between two adjacent serving levels (<= ~4x
/// across modelled descriptors), or a cache-level transition could mask
/// the extra work.
constexpr double kSizeScale = 8.0;

std::string render_config(const sim::SimConfig& cfg) {
  std::ostringstream os;
  os << core::to_string(cfg.precision) << " " << core::to_string(cfg.compiler)
     << " " << core::to_string(cfg.vector_mode) << " t=" << cfg.nthreads
     << " " << machine::to_string(cfg.placement);
  return os.str();
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

/// The obs counters of one invariant, each resolved once per process:
/// `check.<name>.points` on the first evaluation and
/// `check.<name>.violations` on the first violation, so a clean run
/// registers no violation counter and no evaluation takes the registry
/// lock after the first. Concurrent first uses resolve to the same
/// counter (the registry hands out stable references).
class InvariantCounters {
 public:
  constexpr explicit InvariantCounters(const char* name) : name_(name) {}

  const char* name() const noexcept { return name_; }
  obs::Counter& points() { return resolve(points_, ".points"); }
  obs::Counter& violations() { return resolve(violations_, ".violations"); }

 private:
  obs::Counter& resolve(std::atomic<obs::Counter*>& slot,
                        const char* suffix) {
    obs::Counter* c = slot.load(std::memory_order_acquire);
    if (c == nullptr) {
      c = &obs::registry().counter(std::string("check.") + name_ + suffix);
      slot.store(c, std::memory_order_release);
    }
    return *c;
  }

  const char* name_;
  std::atomic<obs::Counter*> points_{nullptr};
  std::atomic<obs::Counter*> violations_{nullptr};
};

InvariantCounters kFinitePositive{"finite-positive"};
InvariantCounters kBreakdownConsistency{"breakdown-consistency"};
InvariantCounters kRooflineComputeBound{"roofline-compute-bound"};
InvariantCounters kRooflineBandwidthBound{"roofline-bandwidth-bound"};
InvariantCounters kScalarFloor{"scalar-floor"};
InvariantCounters kRepsLinearity{"reps-linearity"};
InvariantCounters kSizeMonotonicity{"size-monotonicity"};
InvariantCounters kThreadMonotonicCompute{"thread-monotonic-compute"};
InvariantCounters kThreadMonotonicSync{"thread-monotonic-sync"};
InvariantCounters kCachesimServingLevel{"cachesim-serving-level"};
InvariantCounters kCachesimSteadyHits{"cachesim-steady-hits"};
InvariantCounters kCachesimSteadyMisses{"cachesim-steady-misses"};
InvariantCounters kCachesimTraffic{"cachesim-traffic"};

/// Records invariant evaluations for one (machine, kernel, config):
/// bumps the per-invariant obs counters and appends a Violation when
/// the invariant fails. `where` and each observation's `detail` are
/// callables returning the text, invoked only on a violation, so a
/// holding invariant formats nothing.
template <typename Where>
class Recorder {
 public:
  Recorder(CheckReport& report, std::string_view machine,
           std::string_view kernel, Where where)
      : report_(report), machine_(machine), kernel_(kernel), where_(where) {}

  template <typename Detail>
  void observe(InvariantCounters& invariant, bool holds,
               const Detail& detail) {
    ++report_.points;
    invariant.points().add();
    if (!holds) [[unlikely]] {
      invariant.violations().add();
      report_.violations.push_back(
          Violation{invariant.name(), std::string(machine_),
                    std::string(kernel_), where_(), detail()});
    }
  }

 private:
  CheckReport& report_;
  std::string_view machine_;
  std::string_view kernel_;
  Where where_;
};

}  // namespace

std::string to_string(const Violation& v) {
  return v.invariant + ": " + v.machine + " / " + v.kernel + " [" + v.where +
         "]: " + v.detail;
}

void CheckReport::merge(CheckReport other) {
  points += other.points;
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
}

InvariantChecker::InvariantChecker(machine::MachineDescriptor m,
                                   CheckOptions opt)
    : sim_(std::move(m)), opt_(opt) {}

void InvariantChecker::check_point(const core::KernelSignature& sig,
                                   const sim::SimConfig& cfg,
                                   CheckReport& report) const {
  const auto& m = sim_.machine();
  const auto bd = sim_.run(sig, cfg);
  Recorder rec(report, m.name, sig.name, [&] { return render_config(cfg); });
  const double tol = kRelTol;

  rec.observe(kFinitePositive,
              std::isfinite(bd.total_s) && bd.total_s > 0.0 &&
                  bd.compute_s >= 0.0 && bd.memory_s >= 0.0 &&
                  bd.sync_s >= 0.0 && bd.atomic_s >= 0.0,
              [&] { return "total=" + num(bd.total_s); });

  {
    const double recombined =
        std::max(bd.compute_s, bd.memory_s) + bd.sync_s + bd.atomic_s;
    rec.observe(kBreakdownConsistency,
                std::abs(bd.total_s - recombined) <=
                    tol * std::max(bd.total_s, recombined),
                [&] {
                  return "total=" + num(bd.total_s) +
                         " != max(compute,memory)+sync+atomic=" +
                         num(recombined);
                });
  }

  // Lower bound from the roofline compute ceiling. The ceiling already
  // folds in the codegen plan's efficiency, so the simulator's FP term
  // can only be slower (div/special ops cost more cycles, ILP derating
  // and the scalar penalty are >= 1, and seq_fraction only inflates the
  // critical path). Integer-dominated kernels price FP at zero on the
  // vector path, so the FLOP bound does not apply to them.
  const double flops_total = sig.mix.flops() * sig.iters_per_rep * sig.reps;
  if (!sig.integer_dominated && flops_total > 0.0) {
    const auto pt = sim::roofline_points(m, cfg, {sig}).front();
    const double bound_s = flops_total / (pt.compute_ceiling_gflops * 1e9 *
                                          cfg.nthreads);
    rec.observe(kRooflineComputeBound, bd.total_s * (1.0 + tol) >= bound_s,
                [&] {
                  return "total=" + num(bd.total_s) +
                         " < flops/(ceiling*t)=" + num(bound_s) +
                         " (ceiling=" + num(pt.compute_ceiling_gflops) +
                         " GFLOP/s)";
                });
  }

  // Lower bound from the bandwidth roof, valid only when the analytic
  // model says DRAM serves the working set: every DRAM bandwidth term
  // (region ramp, knee derate, cluster port cap, pattern efficiency)
  // only derates from the single-core stream peak.
  const double bytes_total =
      sig.streamed_bytes_per_iter(cfg.precision) * sig.iters_per_rep *
      sig.reps;
  if (bd.serving == sim::MemLevel::DRAM && bytes_total > 0.0) {
    const double bw_cap =
        m.core.stream_bw_gbs * std::max(1.0, m.memory_derating);
    const double bound_s = bytes_total / (bw_cap * 1e9 * cfg.nthreads);
    rec.observe(kRooflineBandwidthBound, bd.total_s * (1.0 + tol) >= bound_s,
                [&] {
                  return "total=" + num(bd.total_s) +
                         " < bytes/(stream_bw*t)=" + num(bound_s);
                });
  }

  if (opt_.scalar_floor && cfg.vector_mode != core::VectorMode::Scalar) {
    sim::SimConfig scalar = cfg;
    scalar.vector_mode = core::VectorMode::Scalar;
    const double floor_s = sim_.seconds(sig, scalar);
    rec.observe(kScalarFloor,
                bd.total_s <= floor_s * (1.0 + kScalarFloorSlack),
                [&] {
                  return "total=" + num(bd.total_s) + " > scalar total " +
                         num(floor_s) + " * " +
                         num(1.0 + kScalarFloorSlack);
                });
  }

  {
    core::KernelSignature doubled = sig;
    doubled.reps = sig.reps * 2.0;
    const auto bd2 = sim_.run(doubled, cfg);
    rec.observe(kRepsLinearity,
                std::abs(bd2.total_s - 2.0 * bd.total_s) <=
                    tol * std::max(bd2.total_s, 2.0 * bd.total_s),
                [&] {
                  return "2x reps gives " + num(bd2.total_s) +
                         ", expected " + num(2.0 * bd.total_s);
                });
  }

  {
    core::KernelSignature scaled = sig;
    scaled.iters_per_rep = sig.iters_per_rep * kSizeScale;
    scaled.working_set_elems = sig.working_set_elems * kSizeScale;
    const auto big = sim_.run(scaled, cfg);
    rec.observe(kSizeMonotonicity, big.total_s >= bd.total_s * (1.0 - tol),
                [&] {
                  return num(kSizeScale) +
                         "x problem size shrank total from " +
                         num(bd.total_s) + " to " + num(big.total_s);
                });
  }
}

void InvariantChecker::check_thread_monotonicity(
    const core::KernelSignature& sig, const sim::SimConfig& base,
    const std::vector<int>& thread_counts, CheckReport& report) const {
  const double tol = kRelTol;

  sim::TimeBreakdown prev{};
  int prev_t = 0;
  for (const int t : thread_counts) {
    sim::SimConfig cfg = base;
    cfg.nthreads = t;
    const auto bd = sim_.run(sig, cfg);
    if (prev_t > 0) {
      Recorder rec(report, sim_.machine().name, sig.name, [&] {
        return render_config(cfg) + " vs t=" + std::to_string(prev_t);
      });
      rec.observe(kThreadMonotonicCompute,
                  bd.compute_s <= prev.compute_s * (1.0 + tol), [&] {
                    return "compute rose from " + num(prev.compute_s) +
                           " to " + num(bd.compute_s);
                  });
      rec.observe(kThreadMonotonicSync,
                  bd.sync_s >= prev.sync_s * (1.0 - tol), [&] {
                    return "sync fell from " + num(prev.sync_s) + " to " +
                           num(bd.sync_s);
                  });
    }
    prev = bd;
    prev_t = t;
  }
}

namespace {

/// Case 2's sweep: a working set at 2.5x the aggregate last-level
/// capacity, split evenly over the cores, each of which replays its
/// part on its share of the shared levels.
struct DramStream {
  double ws_total = 0.0;
  cachesim::SweepSpec spec;
  std::vector<cachesim::CacheConfig> cfgs;
};

DramStream dram_stream(const machine::MachineDescriptor& m) {
  DramStream c;
  const double aggregate_llc =
      m.l3.present()
          ? static_cast<double>(m.l3.size_bytes) *
                (static_cast<double>(m.num_cores) /
                 std::max(1, m.l3.shared_by))
          : static_cast<double>(m.l2.size_bytes) *
                (static_cast<double>(m.num_cores) /
                 std::max(1, m.l2.shared_by));
  c.ws_total = 2.5 * aggregate_llc;
  c.spec.arrays = 2;
  c.spec.elem_bytes = 8;
  c.spec.elems = std::max<std::size_t>(
      4096, static_cast<std::size_t>(
                c.ws_total / m.num_cores /
                static_cast<double>(c.spec.arrays * c.spec.elem_bytes)));
  c.cfgs = cachesim::hierarchy_configs(
      m, std::max(1, m.l2.shared_by),
      m.l3.present() ? std::max(1, m.l3.shared_by) : 1);
  return c;
}

}  // namespace

std::size_t InvariantChecker::dram_stream_shard_limit() const {
  return cachesim::Hierarchy::shard_limit(dram_stream(sim_.machine()).cfgs);
}

std::vector<cachesim::CacheStats> InvariantChecker::dram_stream_delta(
    std::size_t shard, std::size_t shards) const {
  // Two reps, warm then measured.
  const auto c = dram_stream(sim_.machine());
  return cachesim::replay_stream(c.cfgs, c.spec, 2, shard, shards)
      .steady_delta;
}

void InvariantChecker::check_cachesim_consistency(
    const std::vector<cachesim::CacheStats>& dram_delta,
    CheckReport& report) const {
  const auto& m = sim_.machine();
  const sim::CacheModel cm(m);

  // Case 1: a working set sized to half the usable L1 must be decided
  // L1-resident by the analytic model, and the trace simulator must see
  // an (almost) perfect steady-state hit rate for it.
  {
    cachesim::SweepSpec spec;
    spec.arrays = 2;
    spec.elem_bytes = 8;
    const double usable_l1 = 0.75 * static_cast<double>(m.l1d.size_bytes);
    spec.elems = std::max<std::size_t>(
        64, static_cast<std::size_t>(0.5 * usable_l1) /
                (spec.arrays * spec.elem_bytes));
    const double ws_bytes =
        static_cast<double>(spec.arrays * spec.elems * spec.elem_bytes);

    const auto stats =
        machine::analyze(m, machine::assign_cores(m, machine::Placement::Block, 1));
    const auto level = cm.serving_level(ws_bytes, stats, 1);
    Recorder rec(report, m.name, "synthetic-l1-resident",
                 [&] { return "ws=" + num(ws_bytes) + "B t=1"; });
    rec.observe(kCachesimServingLevel, level == sim::MemLevel::L1, [&] {
      return "analytic model serves a half-L1 working set from " +
             std::string(sim::to_string(level));
    });

    const double l1_miss =
        cachesim::replay(m, spec, 3).steady_delta.front().miss_rate();
    rec.observe(kCachesimSteadyHits, l1_miss < 0.02, [&] {
      return "steady L1 miss rate " + num(l1_miss) +
             " for an L1-resident sweep";
    });
  }

  // Case 2: a working set at 2.5x the aggregate last-level capacity
  // must be decided DRAM-served, stream through the simulated hierarchy
  // (measured-rep last-level miss rate > 0.5), and move per-rep DRAM
  // traffic agreeing with the analytic streamed-bytes term to within the
  // write-allocate floor and the line granularity factor (1.25x..3x).
  {
    const auto c = dram_stream(m);
    const auto stats = machine::analyze(
        m, machine::assign_cores(m, machine::Placement::Block, m.num_cores));
    const auto level = cm.serving_level(c.ws_total, stats, m.num_cores);
    Recorder rec(report, m.name, "synthetic-dram-stream", [&] {
      return "ws=" + num(c.ws_total) + "B t=" + std::to_string(m.num_cores);
    });
    rec.observe(kCachesimServingLevel, level == sim::MemLevel::DRAM, [&] {
      return "analytic model serves a 2.5x-LLC working set from " +
             std::string(sim::to_string(level));
    });

    // The measured rep alone: a sweep that streams from DRAM misses the
    // last level on every rep, not just the cold one.
    const cachesim::CacheStats& last = dram_delta.back();
    const double last_miss = last.miss_rate();
    rec.observe(kCachesimSteadyMisses, last_miss > 0.5, [&] {
      return "steady last-level miss rate " + num(last_miss) +
             " for a DRAM-streaming sweep";
    });

    // The analytic model prices one logical element move per iteration:
    // arrays * elem_bytes of streamed traffic per element. The floor is
    // write-allocate: every written line is read before it is written
    // back, so the written array moves twice.
    const double rep_bytes = static_cast<double>(
        last.lines_below() * c.cfgs.back().line_bytes);
    const double analytic_bytes = static_cast<double>(
        c.spec.arrays * c.spec.elems * c.spec.elem_bytes);
    rec.observe(kCachesimTraffic,
                rep_bytes >= 1.25 * analytic_bytes &&
                    rep_bytes <= 3.0 * analytic_bytes,
                [&] {
                  return "simulated per-rep DRAM traffic " + num(rep_bytes) +
                         "B vs analytic streamed bytes " +
                         num(analytic_bytes) + "B (outside 1.25x..3x)";
                });
  }
}

std::vector<int> serial_half_full_threads(int num_cores) {
  std::vector<int> grid{1, std::max(1, num_cores / 2), num_cores};
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

CheckReport sharded_reports(
    std::size_t n, int jobs,
    const std::function<CheckReport(std::size_t)>& fn) {
  std::vector<CheckReport> parts(n);
  const int workers = threading::recommended_jobs(jobs);
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) parts[i] = fn(i);
  } else {
    threading::ThreadPool pool(workers);
    pool.parallel_for_dynamic(
        n, 1, [&](std::size_t begin, std::size_t end, int) {
          for (std::size_t i = begin; i < end; ++i) parts[i] = fn(i);
        });
  }
  CheckReport report;
  for (auto& part : parts) report.merge(std::move(part));
  return report;
}

CheckReport check_machine(const machine::MachineDescriptor& m,
                          const std::vector<core::KernelSignature>& sigs,
                          const CheckOptions& opt, int jobs) {
  InvariantChecker checker(m, opt);

  const int n = m.num_cores;
  const std::vector<int> thread_grid = serial_half_full_threads(n);

  // Indices [0, shards) are the set shards of the cachesim pass's
  // DRAM-streaming replay, most of the machine's work: dynamic
  // scheduling starts them first, one per worker, and the signature
  // shards (index si + shards, sim::Simulator::run is const and
  // thread-safe) fill the workers around them. One worker replays one
  // shard, since shards run back to back cost more than the whole. The
  // shards' measured-rep deltas are summed once the pool returns, and
  // the cachesim pass is evaluated and merged after the signature
  // reports, so the report reads in serial order: signatures in order,
  // then the cachesim pass.
  const int workers = threading::recommended_jobs(jobs);
  const std::size_t shards = std::bit_floor(std::min(
      static_cast<std::size_t>(workers), checker.dram_stream_shard_limit()));
  std::vector<std::vector<cachesim::CacheStats>> dram(shards);
  CheckReport report = sharded_reports(
      shards + sigs.size(), workers, [&](std::size_t i) {
        CheckReport shard;
        if (i < shards) {
          dram[i] = checker.dram_stream_delta(i, shards);
          return shard;
        }
        const auto& sig = sigs[i - shards];
        for (const auto prec : core::all_precisions) {
          sim::SimConfig cfg;
          cfg.precision = prec;

          for (const int t : thread_grid) {
            cfg.nthreads = t;
            cfg.placement = machine::Placement::Block;
            checker.check_point(sig, cfg, shard);
          }
          cfg.nthreads = n;
          for (const auto placement : machine::all_placements) {
            if (placement == machine::Placement::Block) continue;  // above
            cfg.placement = placement;
            checker.check_point(sig, cfg, shard);
          }

          sim::SimConfig base;
          base.precision = prec;
          base.placement = machine::Placement::ClusterCyclic;
          checker.check_thread_monotonicity(sig, base, thread_grid, shard);
        }
        return shard;
      });

  for (std::size_t k = 1; k < shards; ++k) {
    for (std::size_t l = 0; l < dram[0].size(); ++l) dram[0][l] += dram[k][l];
  }
  checker.check_cachesim_consistency(dram[0], report);
  return report;
}

}  // namespace sgp::check
