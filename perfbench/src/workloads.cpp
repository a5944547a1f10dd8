#include "workloads.hpp"

#include <algorithm>
#include <utility>

#include "machine/registry.hpp"

namespace perfbench {

void load_machine_packs(const Config& cfg, int setup_rep, Report& rep) {
  const std::string dir = cfg.root + "/machines";
  machine::IniLoadReport load;
  if (setup_rep == 0) {
    load = machine::shared_registry().register_ini_dir(dir);
  } else {
    machine::MachineRegistry fresh;
    machine::register_builtin_machines(fresh);
    load = fresh.register_ini_dir(dir);
  }
  rep.check(load.ok() && !load.loaded.empty(),
            "machine pack load: " +
                (load.errors.empty() ? std::string("no packs in ") + dir
                                     : load.errors.front().message));
}

SetupRuns::SetupRuns(const Config& cfg, std::function<void(int)> setup,
                     Report& rep)
    : budget_ms_(cfg.seconds * 1000.0), setup_(std::move(setup)), rep_(rep) {
  run_one();
}

void SetupRuns::run_one() {
  if (done_ > 0) {
    measured_peak_mb_ = std::max(measured_peak_mb_, peak_rss_mb());
  }
  const auto t0 = Clock::now();
  setup_(done_++);
  const double ms = ms_since(t0);
  rep_.setup_s.push_back(ms / 1000.0);
  reset_peak_rss();
}

double SetupRuns::run_due(double measured_ms) {
  const double share = std::min(measured_ms / budget_ms_, 1.0);
  const int due = 1 + static_cast<int>(share * (kSetupReps - 1));
  const auto t0 = Clock::now();
  while (done_ < due) run_one();
  return ms_since(t0);
}

void SetupRuns::finish() {
  run_due(budget_ms_);
  rep_.peak_rss_mb = std::max(measured_peak_mb_, peak_rss_mb());
}

void measure_loop(const Config& cfg, std::size_t min_ops,
                  const std::function<double(std::size_t, Pass)>& op,
                  LayerProfile& profile, SetupRuns& setup, Report& rep) {
  op(0, Pass::Warmup);  // lazy statics, page faults, instruction caches
  const auto t0 = Clock::now();
  const double budget_ms = cfg.seconds * 1000.0;
  double setup_ms = 0.0;
  auto measured_ms = [&] { return ms_since(t0) - setup_ms; };
  for (std::size_t i = 0; i < min_ops || measured_ms() < budget_ms; ++i) {
    const bool traced = cfg.trace && i % 2 == 1;
    if (traced) profile.begin();
    const double ms = op(i, traced ? Pass::Traced : Pass::Measured);
    if (traced) {
      profile.end(ms);
      rep.traced_op_ms.push_back(ms);
    } else {
      rep.op_ms.push_back(ms);
    }
    setup_ms += setup.run_due(measured_ms());
  }
  setup.finish();
}

}  // namespace perfbench
