// paper_regen workload: the 11 paper artifacts (fig1-7, tab1-4)
// regenerated back to back in four modes — cold on a fresh engine with
// kJobs workers, cold with one worker, warm on one engine, and resumed
// from a persist store set-up populated.
#include <memory>

#include "check/artifacts.hpp"
#include "check/golden.hpp"
#include "engine/engine.hpp"
#include "experiments/experiments.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using core::Precision;
using machine::Placement;

/// One artifact rendered the way check::run_artifact renders it, with a
/// span around the experiments:: pipeline and one around the CSV
/// rendering, so the two layers separate in the trace.
std::string render_artifact(const std::string& name,
                            engine::SweepEngine& eng) {
  auto pipeline = [&](auto&& fn) {
    const obs::Span span(kExperimentsPrefix + name);
    return fn();
  };
  auto render = [](auto&& fn) {
    const obs::Span span(kRenderSpan);
    return fn().text();
  };
  auto series = [&](auto&& fn) {
    auto s = pipeline(fn);
    return render([&] { return check::series_csv(s); });
  };
  auto scaling = [&](Placement p) {
    auto t = pipeline([&] { return experiments::scaling_table(p, eng); });
    return render([&] { return check::scaling_csv(t); });
  };
  if (name == "fig1") return series([&] { return experiments::figure1(eng); });
  if (name == "fig2") return series([&] { return experiments::figure2(eng); });
  if (name == "fig3") {
    auto rows = pipeline([&] { return experiments::figure3(eng); });
    return render([&] { return check::fig3_csv(rows); });
  }
  if (name == "fig4" || name == "fig5" || name == "fig6" || name == "fig7") {
    const Precision prec =
        name == "fig4" || name == "fig6" ? Precision::FP64 : Precision::FP32;
    const bool multi = name == "fig6" || name == "fig7";
    return series(
        [&] { return experiments::x86_comparison(prec, multi, eng); });
  }
  if (name == "tab1") return scaling(Placement::Block);
  if (name == "tab2") return scaling(Placement::CyclicNuma);
  if (name == "tab3") return scaling(Placement::ClusterCyclic);
  return render([] { return check::tab4_csv(); });
}

using Texts = std::vector<std::string>;

Texts regenerate(engine::SweepEngine& eng) {
  experiments::reset_best_threads_memo();
  Texts out;
  for (const auto& name : check::artifact_names()) {
    out.push_back(render_artifact(name, eng));
  }
  return out;
}

engine::EngineOptions jobs_options(int jobs) {
  engine::EngineOptions opt;
  opt.jobs = jobs;
  return opt;
}

engine::EngineOptions persist_options(const std::string& dir) {
  engine::EngineOptions opt = jobs_options(kJobs);
  engine::EnginePersistence p;
  p.store.dir = dir;
  p.store.warn = false;
  opt.persist = p;
  return opt;
}

/// The four regeneration modes, in the order one cycle runs them.
enum Mode { kCold, kSerial, kWarm, kResume };
constexpr int kModes = 4;
constexpr const char* kModeNames[kModes] = {
    "regen_cold_ms", "regen_cold_serial_ms", "regen_warm_ms",
    "regen_resume_ms"};

}  // namespace

void run_regen(const Config& cfg, Report& rep) {
  const std::string store = cfg.work + "/store";
  const auto& names = check::artifact_names();
  Texts reference;
  std::unique_ptr<engine::SweepEngine> warm;

  // Set-up: machine packs, goldens, the reference regeneration checked
  // against tests/golden under each artifact's GoldenPolicy, a warmed
  // engine and a populated persist store.
  SetupRuns setup(cfg, [&](int r) {
    load_machine_packs(cfg, r, rep);
    engine::SweepEngine ref_engine(jobs_options(kJobs));
    experiments::reset_best_threads_memo();
    const auto artifacts = check::run_all_artifacts(ref_engine);
    reference.clear();
    for (const auto& a : artifacts) {
      const std::string golden =
          read_file(cfg.root + "/tests/golden/" + a.name + ".csv");
      const auto diff = check::diff_csv(golden, a.csv.text(), a.policy);
      rep.check(!diff, a.name + " vs golden: " +
                           (diff ? check::to_string(*diff) : std::string()));
      reference.push_back(a.csv.text());
    }
    warm = std::make_unique<engine::SweepEngine>(jobs_options(kJobs));
    regenerate(*warm);
    fresh_dir(store);
    {
      engine::SweepEngine populate(persist_options(store));
      regenerate(populate);
    }
  }, rep);

  // The benchmark's own rendering must match check::run_artifact's.
  {
    engine::SweepEngine eng(jobs_options(kJobs));
    rep.check(regenerate(eng) == reference,
              "benchmark rendering differs from check::run_artifact");
  }

  // One regeneration in `mode`; returns its wall time. Cold and resumed
  // regenerations time the engine's construction and destruction too.
  std::uint64_t segments_loaded = 0;
  std::uint64_t resumed_engines = 0;
  auto regenerate_in = [&](Mode mode) -> double {
    Texts texts;
    const auto t0 = Clock::now();
    if (mode == kWarm) {
      texts = regenerate(*warm);
    } else {
      std::unique_ptr<engine::SweepEngine> eng;
      {
        const obs::Span life(kEngineLifecycleSpan);
        eng = std::make_unique<engine::SweepEngine>(
            mode == kResume ? persist_options(store)
                            : jobs_options(mode == kSerial ? 1 : kJobs));
      }
      texts = regenerate(*eng);
      if (mode == kResume) {
        segments_loaded += eng->counters().persist.store.segments_loaded;
        ++resumed_engines;
      }
      const obs::Span life(kEngineLifecycleSpan);
      eng.reset();
    }
    const double ms = ms_since(t0);
    for (std::size_t i = 0; i < names.size(); ++i) {
      rep.check(texts.size() == names.size() && texts[i] == reference[i],
                std::string(kModeNames[mode]) + ": " + names[i] +
                    " differs from the reference regeneration");
    }
    return ms;
  };

  // One operation is a cycle through the four modes, so every mode sees
  // the same host conditions over the whole run.
  std::vector<double> mode_ms[kModes];
  auto cycle = [&](std::size_t, Pass pass) -> double {
    const auto t0 = Clock::now();
    const obs::Span span(kOpSpan);
    for (int m = 0; m < kModes; ++m) {
      const double ms = regenerate_in(static_cast<Mode>(m));
      if (pass == Pass::Measured) mode_ms[m].push_back(ms);
    }
    return ms_since(t0);
  };
  LayerProfile profile;
  measure_loop(cfg, 10, cycle, profile, setup, rep);
  for (int m = 0; m < kModes; ++m) {
    rep.note(kModeNames[m], median(mode_ms[m]), "ms",
             "median of " + std::to_string(mode_ms[m].size()) +
                 " regenerations");
    rep.parts.push_back(std::move(mode_ms[m]));
  }
  rep.parts_what = "regeneration modes";

  if (cfg.trace) {
    LayerExtras extras;
    extras.segments_loaded_per_op =
        static_cast<double>(segments_loaded) /
        static_cast<double>(std::max<std::uint64_t>(resumed_engines, 1));
    extras.segment_files = static_cast<double>(segment_files(store));
    profile.emit(kJobs, extras, rep);
  }
}

}  // namespace perfbench
