// Microbenchmark + acceptance smoke for the sgp-serve request server.
//
// Drives a synthetic client workload (sweep requests over several
// machines/kernel sets, with a deliberate share of duplicated content)
// through two server lifetimes on one durable store:
//
//   cold pass : empty store — every unique request costs simulator
//               work; duplicates within a batch coalesce;
//   warm pass : a fresh Server on the same directory — the persistent
//               memo cache answers from disk.
//
// Gates: every response line is ok, the warm pass does >= 3x fewer
// Simulator::run calls than the cold pass, and the warm cache hit rate
// is >= 0.9. Writes requests/second and hit rates to BENCH_serve.json;
// exits 1 if any gate fails. Wall-clock numbers are reported but never
// gated, so sanitizer builds run the same binary.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"

namespace {

using namespace sgp;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// The synthetic client mix: every entry is one request line template;
/// ids are stamped per pass so restarts never collide. Roughly a third
/// of the lines repeat earlier content — the coalescing/caching case a
/// shared service exists for.
std::vector<std::string> workload_bodies() {
  const std::vector<std::string> machines = {"sg2042", "rome", "icelake"};
  const std::vector<std::string> kernel_sets = {
      R"(["TRIAD","COPY"])", R"(["GEMM"])", R"(["DOT","MUL"])"};
  std::vector<std::string> bodies;
  for (const auto& m : machines) {
    for (const auto& ks : kernel_sets) {
      bodies.push_back(R"("op":"sweep","machine":")" + m +
                       R"(","kernels":)" + ks +
                       R"(,"precision":"fp32","threads":[1,4,16])");
    }
  }
  // Duplicate content: repeat the first half of the mix.
  const std::size_t unique = bodies.size();
  for (std::size_t i = 0; i < unique / 2; ++i) bodies.push_back(bodies[i]);
  return bodies;
}

struct PassResult {
  std::uint64_t requests = 0;
  std::uint64_t ok_responses = 0;
  double wall_s = 0.0;
  serve::ServerStats stats;
  engine::EngineCounters counters;

  double requests_per_second() const {
    return wall_s > 0.0 ? double(requests) / wall_s : 0.0;
  }
};

PassResult run_pass(const std::string& dir, const std::string& tag,
                    int jobs) {
  serve::ServerOptions opt;
  opt.jobs = jobs;
  opt.warn = false;
  opt.persist_dir = dir;
  serve::Server server(opt);

  PassResult r;
  std::mutex mu;
  const auto bodies = workload_bodies();
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (const auto& body : bodies) {
    const std::string line = "{\"id\":\"" + tag + "-" +
                             std::to_string(n++) + "\"," + body + "}";
    server.submit_line(line, [&](std::string resp) {
      std::lock_guard<std::mutex> lk(mu);
      if (resp.find("\"ok\":true") != std::string::npos) ++r.ok_responses;
    });
  }
  server.drain();
  r.wall_s = seconds_since(t0);
  r.requests = bodies.size();
  r.stats = server.stats();
  r.counters = server.engine_counters();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  std::string dir = "serve_bench_store";
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": missing value for " << arg << "\n";
        std::exit(64);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = value();
    } else if (arg == "--persist") {
      dir = value();
    } else if (arg == "--jobs") {
      const auto v = obs::parse_u64(value());
      if (!v || *v > 4096) {
        std::cerr << argv[0] << ": bad value for --jobs\n";
        std::exit(64);
      }
      jobs = static_cast<int>(*v);
    } else {
      std::cerr << argv[0] << ": unknown flag '" << arg << "'\n"
                << "usage: " << argv[0]
                << " [--json <path>] [--persist <dir>] [--jobs <n>]\n";
      std::exit(64);
    }
  }

  std::cout << "== micro_serve: request server, cold vs warm restart ==\n";
  std::filesystem::remove_all(dir);

  const auto cold = run_pass(dir, "cold", jobs);
  const auto warm = run_pass(dir, "warm", jobs);

  const std::uint64_t cold_sims = cold.counters.simulations;
  const std::uint64_t warm_sims = warm.counters.simulations;
  const double sim_ratio =
      double(cold_sims) / double(std::max<std::uint64_t>(warm_sims, 1));
  // Warm hit rate: evaluation points answered without a fresh
  // Simulator::run, over all points the warm pass served.
  const double warm_hit_rate =
      warm.stats.points > 0
          ? 1.0 - double(warm_sims) / double(warm.stats.points)
          : 0.0;
  const bool all_ok = cold.ok_responses == cold.requests &&
                      warm.ok_responses == warm.requests;
  const bool pass =
      all_ok && sim_ratio >= 3.0 && warm_hit_rate >= 0.9;

  auto row = [](const char* name, const PassResult& p) {
    std::cout << "  " << name << ": " << p.requests << " requests, "
              << p.counters.simulations << " Simulator::run, "
              << p.stats.coalesced << " coalesced, "
              << std::fixed << std::setprecision(0)
              << p.requests_per_second() << " req/s\n"
              << std::defaultfloat << std::setprecision(6);
  };
  row("cold (empty store)", cold);
  row("warm (restart)   ", warm);
  std::cout << "Simulator::run cold/warm: " << std::setprecision(2)
            << sim_ratio << "x (need >= 3); warm hit rate "
            << warm_hit_rate << " (need >= 0.9)\n"
            << (pass ? "PASS" : "FAIL") << "\n";

  {
    std::ofstream json(json_path);
    json << std::setprecision(6) << std::boolalpha;
    json << "{\n"
         << "  \"bench\": \"micro_serve\",\n"
         << "  \"store_dir\": \"" << dir << "\",\n"
         << "  \"cold\": {\"requests\": " << cold.requests
         << ", \"requests_per_second\": " << cold.requests_per_second()
         << ", \"simulations\": " << cold_sims
         << ", \"coalesced\": " << cold.stats.coalesced
         << ", \"points\": " << cold.stats.points
         << ", \"wall_s\": " << cold.wall_s << "},\n"
         << "  \"warm\": {\"requests\": " << warm.requests
         << ", \"requests_per_second\": " << warm.requests_per_second()
         << ", \"simulations\": " << warm_sims
         << ", \"resumed_points\": "
         << warm.counters.persist.cache.resumed_points
         << ", \"wall_s\": " << warm.wall_s << "},\n"
         << "  \"cold_warm_sim_ratio\": " << sim_ratio << ",\n"
         << "  \"warm_hit_rate\": " << warm_hit_rate << ",\n"
         << "  \"all_responses_ok\": " << all_ok << ",\n"
         << "  \"pass\": " << pass << "\n"
         << "}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return pass ? 0 : 1;
}
