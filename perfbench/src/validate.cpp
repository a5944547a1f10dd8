// validate_machines workload: check::check_machine over every
// registered machine (built-ins and machines/*.ini) plus seeded
// check::random_machine descriptors, one full pass per operation. It is
// the only production caller of cachesim and prices through scalar
// Simulator::run, so it is the workload on which a batch-path change
// must show no movement.
#include <iterator>
#include <string>
#include <utility>

#include "check/fuzz.hpp"
#include "check/invariants.hpp"
#include "kernels/register_all.hpp"
#include "machine/registry.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The machines a pass validates, with the invariant points
/// check_machine evaluates on each: the built-ins and the machines/*.ini
/// packs registered when the benchmark was defined. The counts are fixed
/// here rather than taken from the code under test, so a change that
/// evaluates fewer points fails instead of looking faster.
constexpr std::pair<const char*, std::uint64_t> kRegistered[] = {
    {"sg2042", 4352},      {"visionfive-v1", 3721}, {"visionfive-v2", 4842},
    {"rome", 4347},        {"broadwell", 4377},     {"icelake", 4377},
    {"sandybridge", 4737}, {"d1", 2606},            {"sg2042-2s", 4292},
    {"sg2044", 4352}};

/// (cores, L3 MiB) of the seeded random machines appended to the
/// registered ones. Checking cost grows with the core count and, through
/// the cachesim replay of a working set sized from the last-level cache,
/// with the L3; a fixed profile keeps a pass's cost alike across seeds.
constexpr std::pair<int, std::size_t> kRandomProfile[] = {
    {2, 4}, {4, 16}, {8, 4}, {16, 16}, {32, 4}, {64, 16}};
constexpr std::size_t kRandomMachines = std::size(kRandomProfile);

/// A check::random_machine seed and its point count.
struct RandomDraw {
  unsigned seed;
  std::uint64_t points;
};
/// Per profile slot, the first eight random_machine seeds (counting 1,
/// 2, ...) of that shape that validate clean under check::FuzzOptions —
/// random descriptors may legitimately disagree with cachesim, whose
/// serving-level invariant is calibrated on real hierarchies. --seed
/// picks one per slot. The pool is fixed here, so the machines a run
/// validates never depend on the code under test, and a new violation
/// on any of them fails the run.
constexpr RandomDraw kRandomPool[kRandomMachines][8] = {
    {{50, 3185}, {164, 3185}, {181, 3185}, {184, 3185},
     {281, 3185}, {324, 3185}, {339, 3185}, {377, 3185}},
    {{18, 3947}, {51, 3947}, {147, 3947}, {151, 3947},
     {166, 3947}, {193, 3947}, {217, 3947}, {228, 3947}},
    {{3, 4172}, {28, 4172}, {33, 4172}, {44, 4172},
     {101, 4172}, {109, 4172}, {116, 4130}, {213, 4172}},
    {{6, 3947}, {52, 3947}, {58, 3947}, {64, 3947},
     {72, 3947}, {122, 3947}, {124, 3863}, {155, 3947}},
    {{38, 4172}, {53, 4172}, {165, 4172}, {194, 4172},
     {314, 4172}, {359, 4172}, {421, 4172}, {535, 4172}},
    {{270, 3947}, {458, 3947}, {460, 3947}, {538, 3947},
     {839, 3947}, {1172, 3947}, {1302, 3863}, {1358, 3947}}};

struct Target {
  machine::MachineDescriptor machine;
  check::CheckOptions options;
  std::uint64_t expected_points = 0;
};

}  // namespace

void run_validate(const Config& cfg, Report& rep) {
  const auto sigs = kernels::all_signatures();
  std::vector<Target> targets;

  // Set-up: machine packs, the registered machines and the seeded random
  // descriptors.
  SetupRuns setup(cfg, [&](int r) {
    load_machine_packs(cfg, r, rep);
    targets.clear();
    const auto& registry = machine::shared_registry();
    for (const auto& [name, points] : kRegistered) {
      const bool known = registry.contains(name);
      rep.check(known, std::string(name) + " is not registered");
      if (known) targets.push_back({registry.create(name), {}, points});
    }
    Rng rng(cfg.seed);
    for (std::size_t slot = 0; slot < kRandomMachines; ++slot) {
      const RandomDraw& d = kRandomPool[slot][rng.below(8)];
      // The scalar floor is a calibration property of the paper machines
      // only (see check::FuzzOptions).
      Target t{check::random_machine(d.seed), check::FuzzOptions{}.check,
               d.points};
      const std::pair<int, std::size_t> shape{
          t.machine.num_cores, t.machine.l3.size_bytes >> 20};
      rep.check(shape == kRandomProfile[slot],
                t.machine.name + " no longer has its profile shape");
      targets.push_back(std::move(t));
    }
  }, rep);

  // One operation is a full validation pass; its parts are the machines.
  rep.parts.resize(targets.size());
  rep.parts_what = "machines";
  auto pass = [&](std::size_t, Pass p) -> double {
    const auto t0 = Clock::now();
    const obs::Span span(kOpSpan);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Target& t = targets[i];
      check::CheckReport report;
      const auto c0 = Clock::now();
      {
        const obs::Span check_span(kCheckSpan);
        report = check::check_machine(t.machine, sigs, t.options, kJobs);
      }
      if (p == Pass::Measured) rep.parts[i].push_back(ms_since(c0));
      rep.check(report.ok() && report.points == t.expected_points,
                t.machine.name + ": " + std::to_string(report.points) +
                    " points, expected " + std::to_string(t.expected_points) +
                    ", " + std::to_string(report.violations.size()) +
                    " violations");
    }
    return ms_since(t0);
  };

  LayerProfile profile;
  measure_loop(cfg, 4, pass, profile, setup, rep);
  rep.note("validate_ms", median(rep.op_ms), "ms",
           std::to_string(rep.op_ms.size()) + " passes of " +
               std::to_string(targets.size()) + " machines");
  if (cfg.trace) profile.emit(kJobs, LayerExtras{}, rep);
}

}  // namespace perfbench
