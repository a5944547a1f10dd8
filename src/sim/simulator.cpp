#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/pattern.hpp"

namespace sgp::sim {

namespace {

/// Per-(machine, signature) state for one pricing call: the signature
/// checks, the config-independent byte and pattern constants, and a
/// lazy memo of the twelve (precision, compiler, vector mode) codegen
/// plans and core costs. A grid slice that sweeps threads/placement
/// hits the same combo slot for every point.
class SignatureContext {
  static constexpr std::size_t kPrecisions = 2;  ///< core::all_precisions
  static constexpr std::size_t kCompilers = 2;   ///< Gcc, Clang
  static constexpr std::size_t kModes = 3;       ///< Scalar, VLS, VLA

 public:
  struct Combo {
    bool ready = false;
    compiler::CodegenPlan plan;
    CoreCost cost;
  };

  SignatureContext(const machine::MachineDescriptor& m,
                   const CoreModel& core, const core::KernelSignature& sig)
      : m_(m), core_(core), sig_(sig) {
    // Same checks (and exception text) for run() and run_batch().
    if (sig.iters_per_rep <= 0.0 || sig.reps <= 0.0 ||
        sig.working_set_elems <= 0.0) {
      throw std::invalid_argument("Simulator::run: malformed signature for " +
                                  sig.name);
    }
    if (sig.seq_fraction < 0.0 || sig.seq_fraction > 1.0) {
      throw std::invalid_argument("Simulator::run: bad seq_fraction for " +
                                  sig.name);
    }
    pattern_bw_eff = pattern_bandwidth_efficiency(sig.pattern);
    for (const auto prec : core::all_precisions) {
      const auto i = static_cast<std::size_t>(prec);
      ws_bytes[i] = sig.working_set_bytes(prec);
      streamed_bytes_per_iter[i] = sig.streamed_bytes_per_iter(prec);
    }
  }

  const Combo& combo(core::Precision prec, core::CompilerId comp,
                     core::VectorMode mode) {
    const std::size_t index =
        (static_cast<std::size_t>(prec) * kCompilers +
         static_cast<std::size_t>(comp)) *
            kModes +
        static_cast<std::size_t>(mode);
    Combo& c = combos_[index];
    if (!c.ready) {
      c.plan = compiler::plan(sig_, prec, comp, mode, m_);
      c.cost = core_.cycles_per_iteration(sig_, c.plan, prec);
      c.ready = true;
    }
    return c;
  }

  double pattern_bw_eff = 1.0;
  /// Signature byte volumes per precision (indexed by Precision).
  std::array<double, kPrecisions> ws_bytes{};
  std::array<double, kPrecisions> streamed_bytes_per_iter{};

 private:
  const machine::MachineDescriptor& m_;
  const CoreModel& core_;
  const core::KernelSignature& sig_;
  std::array<Combo, kPrecisions * kCompilers * kModes> combos_{};
};

}  // namespace

Simulator::Simulator(machine::MachineDescriptor m)
    : m_(std::move(m)), cache_(m_), memory_(m_), core_(m_), sync_(m_) {
  m_.validate();
  // Placement tables for every (placement, nthreads). assign_cores(p, n)
  // is a prefix of assign_cores(p, num_cores) under all three policies,
  // so each row is the previous one extended by one core. validate()
  // guarantees each core sits in exactly one region and one cluster, so
  // the two lookups below are total.
  const auto cores = static_cast<std::size_t>(m_.num_cores);
  const std::size_t regions = m_.numa.size();
  const std::size_t clusters = m_.clusters.size();
  std::vector<std::size_t> region_of(cores);
  std::vector<std::size_t> cluster_of(cores);
  for (std::size_t r = 0; r < regions; ++r) {
    for (int c : m_.numa[r].cores) region_of[static_cast<std::size_t>(c)] = r;
  }
  for (std::size_t cl = 0; cl < clusters; ++cl) {
    for (int c : m_.clusters[cl]) cluster_of[static_cast<std::size_t>(c)] = cl;
  }
  const std::size_t per_row = regions + clusters;
  placement_rows_.reserve(machine::all_placements.size() * cores);
  placement_counts_.assign(machine::all_placements.size() * cores * per_row,
                           0);
  int* counts = placement_counts_.data();
  for (const auto p : machine::all_placements) {
    machine::PlacementView st;  // the previous row; empty before the first
    for (const int c : machine::assign_cores(m_, p, m_.num_cores)) {
      if (!st.threads_per_numa.empty()) {
        std::copy(counts - per_row, counts, counts);
      }
      const auto core = static_cast<std::size_t>(c);
      const int in_region = ++counts[region_of[core]];
      if (in_region == 1) ++st.regions_spanned;
      st.max_per_numa = std::max(st.max_per_numa, in_region);
      const int in_cluster = ++counts[regions + cluster_of[core]];
      st.max_per_cluster = std::max(st.max_per_cluster, in_cluster);
      st.threads_per_numa = {counts, regions};
      st.threads_per_cluster = {counts + regions, clusters};
      placement_rows_.push_back(st);
      counts += per_row;
    }
  }
}

TimeBreakdown Simulator::run(const core::KernelSignature& sig,
                             const SimConfig& cfg) const {
  static obs::Counter& runs = obs::registry().counter("sim.runs");
  static obs::Histogram& run_ns =
      obs::registry().histogram("sim.run_ns");
  const obs::Span span("Simulator::run");
  const auto obs_t0 = std::chrono::steady_clock::now();

  // Thread range first, then signature validation, preserving the
  // historical exception precedence.
  if (cfg.nthreads < 1 || cfg.nthreads > m_.num_cores) {
    throw std::invalid_argument("Simulator::run: nthreads out of range");
  }
  TimeBreakdown out;
  price(sig, std::span<const SimConfig>(&cfg, 1),
        std::span<TimeBreakdown>(&out, 1));

  runs.add();
  run_ns.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - obs_t0)
          .count()));
  return out;
}

void Simulator::run_batch(const core::KernelSignature& sig,
                          std::span<const SimConfig> cfgs,
                          std::span<TimeBreakdown> out) const {
  static obs::Counter& batches =
      obs::registry().counter("sim.batch.batches");
  static obs::Counter& points =
      obs::registry().counter("sim.batch.points");
  if (cfgs.size() != out.size()) {
    throw std::invalid_argument(
        "Simulator::run_batch: cfgs/out length mismatch");
  }
  const obs::Span span("Simulator::run_batch");
  price(sig, cfgs, out);
  batches.add();
  points.add(cfgs.size());
}

void Simulator::price(const core::KernelSignature& sig,
                      std::span<const SimConfig> cfgs,
                      std::span<TimeBreakdown> out) const {
  SignatureContext ctx(m_, core_, sig);
  const double clock_hz = m_.core.clock_ghz * 1e9;
  const double reps = sig.reps;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const SimConfig& cfg = cfgs[i];
    if (cfg.nthreads < 1 || cfg.nthreads > m_.num_cores) {
      throw std::invalid_argument("Simulator::run: nthreads out of range");
    }
    const auto& cb = ctx.combo(cfg.precision, cfg.compiler, cfg.vector_mode);
    const machine::PlacementView& stats =
        placement_stats(cfg.placement, cfg.nthreads);
    const auto prec = static_cast<std::size_t>(cfg.precision);

    // Compute: critical-path iterations per thread (Amdahl with
    // seq_fraction) at the combo's per-iteration core cost.
    const double t = cfg.nthreads;
    const double iters_crit =
        sig.iters_per_rep * ((1.0 - sig.seq_fraction) / t + sig.seq_fraction);
    const double compute = iters_crit * cb.cost.cycles_per_iter / clock_hz;

    // Memory: which level serves the streamed traffic, and how fast.
    const MemLevel serving =
        cache_.serving_level(ctx.ws_bytes[prec], stats, cfg.nthreads);
    double memory = 0.0;
    if (serving != MemLevel::L1) {
      const double bytes_per_thread =
          ctx.streamed_bytes_per_iter[prec] * iters_crit / ctx.pattern_bw_eff;
      double bw = 0.0;
      bool shared_level = false;
      if (serving == MemLevel::DRAM) {
        bw = memory_.per_thread_bw_gbs(stats, cfg.nthreads,
                                       SharedLevel::Dram);
        shared_level = true;
      } else if (serving == MemLevel::L3 && m_.l3_memory_side) {
        bw = memory_.per_thread_bw_gbs(stats, cfg.nthreads,
                                       SharedLevel::MemorySideL3);
        shared_level = true;
      } else {
        bw = cache_.per_thread_bw_gbs(serving, stats, cfg.nthreads);
      }
      // Scalar code exposes less memory-level parallelism than vector
      // code, so it sustains only a fraction of the streaming bandwidth
      // out of the shared levels.
      if (shared_level && !cb.plan.vector_path) {
        bw *= m_.core.scalar_stream_derate;
      }
      bw *= cb.plan.memory_efficiency;
      memory = bytes_per_thread / (bw * 1e9);
    }

    // Sync and atomics. Contended atomics serialise globally: every
    // atomic op costs a coherence round trip once more than one thread
    // updates the location.
    const double sync = sync_.seconds_per_rep(sig, stats, cfg.nthreads);
    double atomic = 0.0;
    if (sig.atomic) {
      const double ops = sig.iters_per_rep;  // one atomic per iteration
      if (cfg.nthreads == 1) {
        atomic = ops * 6e-9;  // uncontended near-L1 latency
      } else {
        const double span_mult = stats.regions_spanned > 1
                                     ? m_.remote_numa_penalty
                                     : 1.0;
        atomic = ops * m_.atomic_rtt_ns * 1e-9 * span_mult;
      }
    }

    TimeBreakdown& o = out[i];
    o.compute_s = compute * reps;
    o.memory_s = memory * reps;
    o.sync_s = sync * reps;
    o.atomic_s = atomic * reps;
    o.total_s = (std::max(compute, memory) + sync + atomic) * reps;
    o.serving = serving;
    o.vector_path = cb.plan.vector_path;
    o.note = cb.plan.note;
    o.note_compiler = cfg.compiler;
    o.note_mode = cfg.vector_mode;
    o.note_rollback = cb.plan.needs_rollback;
  }
}

}  // namespace sgp::sim
