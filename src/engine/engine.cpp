#include "engine/engine.hpp"

#include <bit>
#include <cstdint>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sgp::engine {

namespace {

/// Process-wide engine metrics, aggregated over every SweepEngine.
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

SweepEngine::SweepEngine(EngineOptions) {}

std::vector<sim::TimeBreakdown> SweepEngine::run_batch(
    std::span<const SweepPoint> points) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
  EngineMetrics::get().batches.add();
  const obs::Span span("SweepEngine::run_batch");
  std::vector<sim::TimeBreakdown> results(points.size());
  if (points.empty()) return results;

  requests_ += points.size();
  EngineMetrics::get().requests.add(points.size());

  // Group the batch by (machine, signature) identity, in order of first
  // appearance; a machine's Simulator is found (machine_fingerprint
  // walks every descriptor field) once per batch.
  struct Group {
    const machine::MachineDescriptor* machine;
    const core::KernelSignature* signature;
    const sim::Simulator* simulator;
  };
  struct MachineEntry {
    const machine::MachineDescriptor* machine;
    const sim::Simulator* simulator;
  };
  std::vector<Group> groups;
  std::vector<MachineEntry> machines;
  // Open-addressing index from the pointer pair to group + 1 (0 =
  // empty). A batch has no more groups than points, so twice as many
  // slots keep it at most half full.
  std::vector<std::uint32_t> index(std::bit_ceil(2 * points.size()), 0);
  const std::size_t mask = index.size() - 1;
  const int shift = 64 - std::countr_zero(index.size());
  std::vector<std::uint32_t> point_group(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const std::uint64_t h =
        (reinterpret_cast<std::uintptr_t>(p.machine) * 0x9e3779b97f4a7c15ull ^
         reinterpret_cast<std::uintptr_t>(p.signature)) *
        0xc2b2ae3d27d4eb4full;
    std::size_t slot = static_cast<std::size_t>(h >> shift);
    for (; index[slot] != 0; slot = (slot + 1) & mask) {
      const Group& g = groups[index[slot] - 1];
      if (g.machine == p.machine && g.signature == p.signature) break;
    }
    if (index[slot] == 0) {
      std::size_t me = 0;
      while (me < machines.size() && machines[me].machine != p.machine) ++me;
      if (me == machines.size()) {
        const auto [it, built] =
            sims_.try_emplace(machine_fingerprint(*p.machine), *p.machine);
        if (built) {
          ++simulators_built_;
          EngineMetrics::get().simulators_built.add();
        }
        machines.push_back(MachineEntry{p.machine, &it->second});
      }
      groups.push_back(
          Group{p.machine, p.signature, machines[me].simulator});
      index[slot] = static_cast<std::uint32_t>(groups.size());
    }
    point_group[i] = index[slot] - 1;
  }

  // Counting sort of the points by group, in point order inside each
  // group: count into group_end[g], turn the counts into starts, then
  // advance each start past its group's points, which leaves group g's
  // run of `order` at [group_end[g - 1], group_end[g]).
  std::vector<std::uint32_t> group_end(groups.size(), 0);
  for (const std::uint32_t g : point_group) ++group_end[g];
  std::exclusive_scan(group_end.begin(), group_end.end(), group_end.begin(),
                      std::uint32_t{0});
  std::vector<std::uint32_t> order(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    order[group_end[point_group[i]]++] = static_cast<std::uint32_t>(i);
  }

  // Price each group through one sim::Simulator::run_batch and scatter
  // its results back into point order.
  std::vector<sim::SimConfig> cfgs;
  std::vector<sim::TimeBreakdown> outs;
  std::uint32_t begin = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const std::span<const std::uint32_t> run(order.data() + begin,
                                             group_end[gi] - begin);
    begin = group_end[gi];
    const Group& g = groups[gi];
    cfgs.clear();
    for (const std::uint32_t i : run) cfgs.push_back(points[i].config);
    outs.resize(cfgs.size());
    g.simulator->run_batch(*g.signature, cfgs, outs);
    simulations_ += cfgs.size();
    EngineMetrics::get().simulations.add(cfgs.size());
    for (std::size_t k = 0; k < run.size(); ++k) results[run[k]] = outs[k];
  }
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
  std::lock_guard<std::mutex> lock(mu_);
  EngineCounters out;
  out.requests = requests_;
  out.simulations = simulations_;
  out.simulators_built = simulators_built_;
  out.batches = batches_;
  return out;
}

SweepEngine& shared_engine() {
  static SweepEngine* eng = new SweepEngine();  // never destroyed
  return *eng;
}

}  // namespace sgp::engine
