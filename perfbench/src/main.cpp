// Benchmark driver: runs one workload for --seconds, checks its outputs,
// prints a human-readable table and, as the last line, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). METRICS.md defines every metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --work <scratch dir>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The end-to-end figures each workload reports by name, with their
/// units (see METRICS.md).
constexpr std::pair<const char*, const char*> kNamedFigures[] = {
    {"regen_cold_ms", "ms"}, {"regen_cold_serial_ms", "ms"},
    {"regen_warm_ms", "ms"}, {"regen_resume_ms", "ms"},
    {"serve_rps", "1/s"},    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},  {"validate_ms", "ms"}};

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <paper_regen|serve_mixed|"
               "validate_machines> "
               "--seed <n> --seconds <s> --trace <0|1> --root <dir> "
               "--work <dir>\n";
  return 64;
}

void print_row(const Metric& m) {
  std::printf("  %-28s %16s %-12s %s\n", m.name.c_str(),
              fmt_num(m.value).c_str(), m.unit.c_str(), m.note.c_str());
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           fmt_num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  Config cfg;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) return usage("odd argument list");
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace",
                          "--root", "--work"}) {
    if (!args.count(key)) return usage(std::string("missing ") + key);
  }
  try {
    cfg.workload = args["--workload"];
    cfg.seed = std::stoull(args["--seed"]);
    cfg.seconds = std::stod(args["--seconds"]);
    cfg.trace = args["--trace"] == "1";
    cfg.root = std::filesystem::absolute(args["--root"]).string();
    cfg.work = std::filesystem::absolute(args["--work"]).string();
  } catch (const std::exception& e) {
    return usage(std::string("bad argument: ") + e.what());
  }
  if (cfg.seconds <= 0.0) return usage("--seconds must be positive");
  fresh_dir(cfg.work);
  // The daemon's socket is bound by a path relative to the work dir,
  // which keeps it under the AF_UNIX path limit wherever the checkout is.
  std::filesystem::current_path(cfg.work);

  Report rep;
  const std::string& w = cfg.workload;
  if (w == "paper_regen") {
    run_regen(cfg, rep);
  } else if (w == "serve_mixed") {
    run_serve(cfg, rep);
  } else if (w == "validate_machines") {
    run_validate(cfg, rep);
  } else {
    return usage("unknown workload '" + w + "'");
  }

  auto op_quantile = [&](double q) {
    double total = 0.0;
    for (const auto& part : rep.parts) total += quantile(part, q);
    return total;
  };
  auto pct = [](double q) {
    return "p" + std::to_string(static_cast<int>(q * 100.0 + 0.5));
  };
  std::vector<Metric> e2e{
      {"setup_s", quantile(rep.setup_s, kSetupQuantile), "s",
       pct(kSetupQuantile) + " of " + std::to_string(rep.setup_s.size()) +
           " set-ups spread over the run"},
      {"op_ms", op_quantile(kOpQuantile), "ms",
       pct(kOpQuantile) + " per part, summed over " +
           std::to_string(rep.parts.size()) + " " + rep.parts_what + "; " +
           std::to_string(rep.op_ms.size()) + " operations"},
      {"peak_rss_mb", rep.peak_rss_mb, "MiB",
       "VmHWM over the operations, set-up excluded"},
  };
  const double failed_frac =
      rep.attempted == 0 ? 1.0
                         : static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted);

  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n", w.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              fmt_num(cfg.seconds).c_str(), cfg.trace ? 1 : 0);
  std::printf("end to end%s:\n", cfg.trace ? " (traced run: interleaved "
                                             "untraced operations)"
                                           : "");
  for (const auto& m : e2e) print_row(m);
  for (const auto& m : rep.table) print_row(m);
  print_row({"failed_frac", failed_frac, "ratio",
             std::to_string(rep.failed) + " of " +
                 std::to_string(rep.attempted) + " operations"});
  for (const auto& e : rep.errors) std::printf("  error: %s\n", e.c_str());

  std::vector<Metric> out = e2e;
  if (cfg.trace) {
    const double untraced = median(rep.op_ms);
    rep.layer("obs.trace_overhead_frac",
              untraced > 0.0 ? median(rep.traced_op_ms) / untraced - 1.0 : 0.0,
              "ratio",
              "median traced over untraced op, " +
                  std::to_string(rep.traced_op_ms.size()) + " traced ops");
    // The workload's named end-to-end figures and the failure ratio,
    // under the same names on every workload (0 where they do not apply).
    for (const auto& [name, unit] : kNamedFigures) {
      double v = 0.0;
      for (const auto& m : rep.table) {
        if (m.name == name) v = m.value;
      }
      rep.layer(name, v, unit);
    }
    rep.layer("failed_frac", failed_frac, "ratio");
    std::printf("per layer:\n");
    for (const auto& m : rep.layers) print_row(m);
    out = rep.layers;
  }
  const bool correct = rep.failed == 0 && rep.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              json_metrics(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
