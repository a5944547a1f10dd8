// suite_cli: a RAJAPerf-style command-line driver for the native suite.
// Runs kernels for real on this machine and prints per-kernel timings,
// checksums, outcomes and per-class summaries. Long campaigns survive
// misbehaving kernels: with --keep-going every kernel ends in a typed
// outcome (ok / failed / timed-out / skipped / corrupt-checksum) and the
// run continues.
//
//   ./suite_cli [options]
//     --group <name>        run one class (Algorithm, Apps, Basic, Lcals,
//                           Polybench, Stream); default: all
//     --kernel <name>       run one kernel (repeatable via comma list)
//     --precision <p>       fp32 | fp64 | both (default both)
//     --threads <n>         worker threads (default 1)
//     --size-factor <f>     problem size multiplier (default 0.05)
//     --rep-factor <f>      rep count multiplier (default 0.05)
//     --csv <path>          also write a CSV (includes status columns)
//     --keep-going          record failures and continue
//     --kernel-timeout <s>  per-kernel soft deadline, seconds (0 = off)
//     --retries <n>         retry failing kernels up to n more times
//     --backoff-ms <ms>     initial retry backoff (default 10, doubles)
//     --backoff-jitter <j>  deterministic retry jitter in [0,1), spreads
//                           backoffs by +-j (default 0 = exact doubling)
//     --quarantine <list>   comma list of kernels to skip
//     --inject <plan>       fault plan, e.g. "MUL:throw,DOT:nan,
//                           TRIAD:delay:250,COPY:throw:1" (see
//                           docs/RESILIENCE.md for the grammar)
//     --inject-seed <n>     seed for probabilistic fault specs
//     --checkpoint <file>   durable checkpoint: completed-ok kernel runs
//                           are flushed after every kernel
//                           (write-temp-then-rename); an interrupted run
//                           restarted with the same flag and params
//                           replays only the missing kernels. A corrupt
//                           checkpoint is quarantined and the run starts
//                           cold — never fatal.
//     --inject-io <plan>    fault plan armed at the checkpoint I/O sites
//                           persist.write / persist.read /
//                           persist.rename (kinds torn | enospc |
//                           bitflip | renamefail), separate from
//                           --inject so kernel wildcards never hit disk
//     --trace <file>        write a Chrome trace_event JSON (open in
//                           about:tracing or Perfetto)
//     --metrics <file>      write a run manifest + metrics snapshot
//     --machine <name>      simulated mode: instead of running kernels
//                           natively, price the selected suite on the
//                           named machine descriptor through the sweep
//                           engine (machine::shared_registry() resolves
//                           the name; unknown names exit 64 with a
//                           did-you-mean hint). Incompatible with the
//                           native-execution flags (--checkpoint,
//                           --inject*, --retries, ...).
//     --machine-dir <dir>   register every *.ini machine pack in <dir>
//                           into the registry before resolving
//                           --machine (see docs/MACHINES.md)
//
// Exit codes: 0 = all kernels ok (or skipped), 1 = completed with
// partial failures, 2 = fatal error, 64 = usage error.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/fingerprint.hpp"
#include "engine/persist.hpp"
#include "kernels/register_all.hpp"
#include "machine/registry.hpp"
#include "native/suite_runner.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "resilience/fault_injector.hpp"

namespace {

using namespace sgp;

struct Options {
  std::optional<core::Group> group;
  std::vector<std::string> kernels;
  std::vector<core::Precision> precisions{core::Precision::FP32,
                                          core::Precision::FP64};
  core::RunParams rp;
  native::RunPolicy policy;
  std::optional<std::string> csv_path;
  std::optional<resilience::FaultPlan> fault_plan;
  std::uint64_t inject_seed = 4242u;
  std::optional<std::string> checkpoint_path;
  std::optional<resilience::FaultPlan> io_fault_plan;
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> machine;
  std::vector<std::string> machine_dirs;
};

std::optional<core::Group> parse_group(const std::string& s) {
  for (const auto g : core::all_groups) {
    if (s == core::to_string(g)) return g;
  }
  return std::nullopt;
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.rp.size_factor = 0.05;
  opt.rp.rep_factor = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    auto next_int = [&]() {
      const auto v = next();
      try {
        std::size_t pos = 0;
        const int x = std::stoi(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
        return x;
      } catch (const std::exception&) {
        throw std::invalid_argument("bad value '" + v + "' for " + arg);
      }
    };
    auto next_double = [&]() {
      const auto v = next();
      try {
        std::size_t pos = 0;
        const double x = std::stod(v, &pos);
        if (pos != v.size()) throw std::invalid_argument(v);
        return x;
      } catch (const std::exception&) {
        throw std::invalid_argument("bad value '" + v + "' for " + arg);
      }
    };
    if (arg == "--group") {
      const auto v = next();
      opt.group = parse_group(v);
      if (!opt.group) throw std::invalid_argument("unknown group " + v);
    } else if (arg == "--kernel") {
      for (auto& k : split_commas(next())) opt.kernels.push_back(k);
    } else if (arg == "--precision") {
      const auto v = next();
      if (v == "fp32") {
        opt.precisions = {core::Precision::FP32};
      } else if (v == "fp64") {
        opt.precisions = {core::Precision::FP64};
      } else if (v != "both") {
        throw std::invalid_argument("unknown precision " + v);
      }
    } else if (arg == "--threads") {
      opt.rp.num_threads = next_int();
    } else if (arg == "--size-factor") {
      opt.rp.size_factor = next_double();
    } else if (arg == "--rep-factor") {
      opt.rp.rep_factor = next_double();
    } else if (arg == "--csv") {
      opt.csv_path = next();
    } else if (arg == "--keep-going") {
      opt.policy.keep_going = true;
    } else if (arg == "--kernel-timeout") {
      // Validated here, at parse time: a negative (or NaN) timeout is a
      // usage error (exit 64), not a fatal runtime error later.
      const double t = next_double();
      if (!(t >= 0.0)) {
        throw std::invalid_argument("bad value '" + std::to_string(t) +
                                    "' for " + arg);
      }
      opt.policy.kernel_timeout_s = t;
    } else if (arg == "--retries") {
      // Non-negative integer, validated at parse time — "--retries -2"
      // used to flow through as max_attempts == -1 and only die inside
      // the runner (exit 2 instead of the usage exit 64).
      const auto v = next();
      const auto n = obs::parse_u64(v);
      if (!n || *n > 1000000) {
        throw std::invalid_argument("bad value '" + v + "' for " + arg);
      }
      opt.policy.retry.max_attempts = 1 + static_cast<int>(*n);
    } else if (arg == "--backoff-ms") {
      opt.policy.retry.backoff_initial_ms = next_double();
    } else if (arg == "--backoff-jitter") {
      opt.policy.retry.jitter = next_double();
      opt.policy.retry.validate();
    } else if (arg == "--quarantine") {
      for (auto& k : split_commas(next())) {
        opt.policy.quarantine.push_back(k);
      }
    } else if (arg == "--inject") {
      opt.fault_plan = resilience::FaultPlan::parse(next());
    } else if (arg == "--inject-seed") {
      // Full-range uint64 seed (shared parser with the sgp-serve
      // request validator). std::stoi + static_cast<unsigned> used to
      // wrap negatives silently and reject any seed above INT_MAX.
      const auto v = next();
      const auto seed = obs::parse_u64(v);
      if (!seed) {
        throw std::invalid_argument("bad value '" + v + "' for " + arg);
      }
      opt.inject_seed = *seed;
    } else if (arg == "--checkpoint") {
      opt.checkpoint_path = next();
    } else if (arg == "--inject-io") {
      opt.io_fault_plan = resilience::FaultPlan::parse(next());
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else if (arg == "--metrics") {
      opt.metrics_path = next();
    } else if (arg == "--machine") {
      opt.machine = next();
    } else if (arg == "--machine-dir") {
      opt.machine_dirs.push_back(next());
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (opt.machine) {
    // Simulated mode prices the suite analytically; flags that only
    // make sense for native execution are a usage error, not silently
    // ignored.
    if (opt.checkpoint_path || opt.fault_plan || opt.io_fault_plan ||
        opt.policy.keep_going || opt.policy.retry.max_attempts > 1 ||
        opt.policy.kernel_timeout_s > 0.0 ||
        !opt.policy.quarantine.empty()) {
      throw std::invalid_argument(
          "--machine (simulated mode) is incompatible with the native "
          "execution flags (--checkpoint, --inject, --inject-io, "
          "--keep-going, --retries, --kernel-timeout, --quarantine)");
    }
  }
  // Usage errors must surface as exit 64 from here, not exit 2 from the
  // SuiteRunner constructor (which validates again as a backstop).
  opt.policy.validate();
  return opt;
}

/// Fingerprint of everything that changes what a kernel run means; a
/// checkpoint from different params must not be resumed. A checkpoint
/// written by a build that folded these fields byte by byte restarts
/// cold: its fingerprint no longer matches.
std::uint64_t params_fingerprint(const core::RunParams& rp) {
  engine::Fnv1a fp;
  fp.i32(rp.num_threads);
  fp.f64(rp.size_factor);
  fp.f64(rp.rep_factor);
  return fp.digest();
}

// ------------------------------------------------ kernel checkpoint --
//
// The checkpoint is ONE segment file in the engine/persist.hpp format
// (versioned header, per-entry checksums), rewritten atomically
// after every completed kernel. Payload 0 is a params-fingerprint
// header; each further payload is one completed-ok KernelRunRecord.
// Failed/skipped runs are never persisted, so a resume re-runs them.

constexpr std::uint32_t kCkptParamsTag = 1;
constexpr std::uint32_t kCkptRecordTag = 2;

void ckpt_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof v);
  std::memcpy(out.data() + n, &v, sizeof v);
}

void ckpt_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t n = out.size();
  out.resize(n + sizeof v);
  std::memcpy(out.data() + n, &v, sizeof v);
}

void ckpt_f64(std::vector<std::byte>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  ckpt_u64(out, bits);
}

void ckpt_str(std::vector<std::byte>& out, const std::string& s) {
  ckpt_u32(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t n = out.size();
  out.resize(n + s.size());
  std::memcpy(out.data() + n, s.data(), s.size());
}

/// Bounds-checked little reader over a checkpoint payload.
struct CkptReader {
  std::span<const std::byte> buf;
  std::size_t pos = 0;
  bool ok = true;

  template <typename T>
  T num() {
    T v{};
    if (pos + sizeof v > buf.size()) {
      ok = false;
      return v;
    }
    std::memcpy(&v, buf.data() + pos, sizeof v);
    pos += sizeof v;
    return v;
  }

  std::string str() {
    const auto n = num<std::uint32_t>();
    if (!ok || pos + n > buf.size()) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(buf.data() + pos), n);
    pos += n;
    return s;
  }
};

std::vector<std::byte> encode_params_header(std::uint64_t fingerprint) {
  std::vector<std::byte> out;
  ckpt_u32(out, kCkptParamsTag);
  ckpt_u64(out, fingerprint);
  return out;
}

std::vector<std::byte> encode_record(const native::KernelRunRecord& rec) {
  std::vector<std::byte> out;
  ckpt_u32(out, kCkptRecordTag);
  ckpt_str(out, rec.name);
  ckpt_u32(out, static_cast<std::uint32_t>(rec.group));
  ckpt_u32(out, static_cast<std::uint32_t>(rec.precision));
  // long double narrows to double: both report surfaces (table and CSV)
  // already render the checksum through a double cast.
  ckpt_f64(out, static_cast<double>(rec.checksum));
  ckpt_f64(out, rec.seconds);
  ckpt_u64(out, rec.reps);
  ckpt_u32(out, static_cast<std::uint32_t>(rec.threads));
  ckpt_u32(out, static_cast<std::uint32_t>(rec.attempts));
  return out;
}

std::optional<native::KernelRunRecord> decode_record(
    std::span<const std::byte> payload) {
  CkptReader r{payload};
  if (r.num<std::uint32_t>() != kCkptRecordTag) return std::nullopt;
  native::KernelRunRecord rec;
  rec.name = r.str();
  const auto group = r.num<std::uint32_t>();
  const auto prec = r.num<std::uint32_t>();
  rec.checksum = r.num<double>();
  rec.seconds = r.num<double>();
  rec.reps = static_cast<std::size_t>(r.num<std::uint64_t>());
  rec.threads = static_cast<int>(r.num<std::uint32_t>());
  rec.attempts = static_cast<int>(r.num<std::uint32_t>());
  if (!r.ok || r.pos != payload.size()) return std::nullopt;
  if (group >= std::size(core::all_groups)) return std::nullopt;
  if (prec >= std::size(core::all_precisions)) return std::nullopt;
  rec.group = static_cast<core::Group>(group);
  rec.precision = static_cast<core::Precision>(prec);
  rec.outcome = resilience::Outcome::Ok;  // only ok runs are persisted
  return rec;
}

/// Completed-ok runs recovered from --checkpoint, keyed (name, prec).
using ResumedRuns =
    std::map<std::pair<std::string, core::Precision>,
             native::KernelRunRecord>;

/// Loads the checkpoint if present. A fingerprint mismatch (different
/// --threads/--size-factor/--rep-factor) discards it with a warning; a
/// corrupt file is quarantined by the loader. Never fatal.
ResumedRuns load_checkpoint(const std::string& path,
                            std::uint64_t fingerprint,
                            sgp::resilience::FaultInjector* injector) {
  ResumedRuns out;
  if (!std::filesystem::exists(path)) return out;
  bool header_ok = false;
  std::vector<native::KernelRunRecord> records;
  const auto parse = engine::load_segment_file(
      path,
      [&](std::span<const std::byte> payload) {
        CkptReader r{payload};
        const auto tag = r.num<std::uint32_t>();
        if (tag == kCkptParamsTag) {
          header_ok = r.num<std::uint64_t>() == fingerprint && r.ok;
        } else if (const auto rec = decode_record(payload)) {
          records.push_back(*rec);
        }
      },
      injector, /*warn=*/true);
  if (parse.status != engine::SegmentStatus::Ok) return out;
  if (!header_ok) {
    std::cerr << "warning: checkpoint " << path
              << " was written with different run params; starting cold\n";
    return out;
  }
  for (auto& rec : records) {
    out.emplace(std::make_pair(rec.name, rec.precision), std::move(rec));
  }
  return out;
}

/// Atomically rewrites the checkpoint with every ok record so far.
/// Failures (including injected ENOSPC / rename faults) warn and keep
/// running — losing a checkpoint must never fail the campaign.
void save_checkpoint(const std::string& path, std::uint64_t fingerprint,
                     const std::vector<native::KernelRunRecord>& records,
                     sgp::resilience::FaultInjector* injector) {
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(records.size() + 1);
  payloads.push_back(encode_params_header(fingerprint));
  for (const auto& rec : records) payloads.push_back(encode_record(rec));
  engine::write_segment_file(path, payloads, injector, /*warn=*/true);
}

/// Writes the --trace/--metrics artifacts. Throws on I/O failure or —
/// defensively — if either artifact fails its own JSON validation.
void write_observability(const Options& opt,
                         const std::map<resilience::Outcome, int>& outcomes,
                         std::uint64_t resumed_points,
                         std::uint64_t checkpoint_flushes) {
  if (opt.trace_path) {
    const std::string json = obs::Tracer::instance().chrome_trace_json();
    if (const auto err = obs::json_error(json)) {
      throw std::runtime_error("trace JSON invalid: " + *err);
    }
    std::ofstream out(*opt.trace_path, std::ios::binary);
    out << json;
    if (!out.flush()) {
      throw std::runtime_error("cannot write " + *opt.trace_path);
    }
  }
  if (opt.metrics_path) {
    obs::RunManifest man("suite_cli");
    man.add("run", "threads",
            static_cast<std::int64_t>(opt.rp.num_threads));
    man.add("run", "size_factor", opt.rp.size_factor);
    man.add("run", "rep_factor", opt.rp.rep_factor);
    man.add("run", "keep_going", opt.policy.keep_going);
    man.add("run", "kernel_timeout_s", opt.policy.kernel_timeout_s);
    {
      char buf[17] = {};
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(
                        params_fingerprint(opt.rp)));
      man.add("run", "params_fingerprint", buf);
    }
    if (opt.checkpoint_path) {
      man.add("persist", "checkpoint", *opt.checkpoint_path);
      man.add("persist", "resumed_points", resumed_points);
      man.add("persist", "flushes", checkpoint_flushes);
    }
    for (const auto& [o, n] : outcomes) {
      if (n > 0) {
        man.add("outcomes", std::string(resilience::to_string(o)),
                static_cast<std::uint64_t>(n));
      }
    }
    man.write(*opt.metrics_path, obs::registry().snapshot());
  }
}

/// Simulated mode (--machine): prices the selected kernels on a
/// registry-resolved machine descriptor through the shared sweep
/// engine, instead of executing them natively. One grid call per
/// precision; the table carries the model's time breakdown.
int run_simulated(const Options& opt) {
  const machine::MachineDescriptor* m = nullptr;
  try {
    m = &machine::shared_registry().descriptor(*opt.machine);
  } catch (const std::out_of_range& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 64;
  }
  if (opt.rp.num_threads > m->num_cores) {
    std::cerr << "error: --threads " << opt.rp.num_threads
              << " exceeds the " << m->num_cores << " cores of '"
              << *opt.machine << "'\n";
    return 64;
  }

  // Same kernel selection rules as the native path, resolved against
  // the model signatures instead of the native registry.
  std::vector<core::KernelSignature> sigs;
  if (!opt.kernels.empty()) {
    for (const auto& name : opt.kernels) {
      const core::KernelSignature* sig = kernels::find_signature(name);
      if (sig == nullptr) {
        std::cerr << "error: unknown kernel '" << name << "'\n";
        return 64;
      }
      sigs.push_back(*sig);
    }
  } else {
    for (const auto& s : kernels::all_signatures()) {
      if (!opt.group || s.group == *opt.group) sigs.push_back(s);
    }
  }

  std::vector<sim::SimConfig> cfgs;
  cfgs.reserve(opt.precisions.size());
  for (const auto prec : opt.precisions) {
    sim::SimConfig cfg;
    cfg.precision = prec;
    cfg.nthreads = opt.rp.num_threads;
    cfgs.push_back(cfg);
  }

  auto& eng = engine::shared_engine();
  const auto times = eng.run_grid(*m, sigs, cfgs);

  std::cout << "simulated suite on " << m->name << " (" << m->num_cores
            << " cores, " << opt.rp.num_threads << " threads)\n\n";
  report::Table t({"kernel", "class", "precision", "est ms/rep",
                   "est total s", "serving", "path"});
  report::CsvWriter csv({"kernel", "class", "precision", "threads",
                         "est_seconds", "compute_s", "memory_s", "sync_s",
                         "serving", "vector_path"});
  std::map<core::Group, std::pair<double, int>> class_time;
  for (std::size_t c = 0; c < cfgs.size(); ++c) {
    for (std::size_t s = 0; s < sigs.size(); ++s) {
      const auto& sig = sigs[s];
      const auto& tb = times[c * sigs.size() + s];
      const auto prec = core::to_string(cfgs[c].precision);
      t.add_row({sig.name, std::string(core::to_string(sig.group)),
                 std::string(prec),
                 report::Table::num(tb.total_s / sig.reps * 1e3, 3),
                 report::Table::num(tb.total_s, 3),
                 std::string(sim::to_string(tb.serving)),
                 tb.vector_path ? "vector" : "scalar"});
      csv.add_row({sig.name, std::string(core::to_string(sig.group)),
                   std::string(prec), std::to_string(opt.rp.num_threads),
                   report::Table::num(tb.total_s, 6),
                   report::Table::num(tb.compute_s, 6),
                   report::Table::num(tb.memory_s, 6),
                   report::Table::num(tb.sync_s, 6),
                   std::string(sim::to_string(tb.serving)),
                   tb.vector_path ? "1" : "0"});
      auto& [sum, n] = class_time[sig.group];
      sum += tb.total_s;
      ++n;
    }
  }
  std::cout << t.render() << "\n";

  report::Table summary({"class", "kernels x precisions", "est total s"});
  for (const auto& [g, v] : class_time) {
    summary.add_row({std::string(core::to_string(g)),
                     std::to_string(v.second),
                     report::Table::num(v.first, 3)});
  }
  std::cout << summary.render();

  if (opt.csv_path) {
    try {
      csv.write(*opt.csv_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 64;
  }
  for (const auto& dir : opt.machine_dirs) {
    try {
      const auto report = machine::shared_registry().register_ini_dir(dir);
      for (const auto& err : report.errors) {
        std::cerr << "warning: machine pack " << err.file << ": "
                  << err.message << " (quarantined)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 64;
    }
  }
  if (opt.machine) return run_simulated(opt);
  if (opt.trace_path) obs::Tracer::instance().enable();

  const auto registry = kernels::make_registry();
  std::vector<std::string> names;
  if (!opt.kernels.empty()) {
    names = opt.kernels;
  } else if (opt.group) {
    names = registry.names(*opt.group);
  } else {
    names = registry.names();
  }

  std::optional<resilience::FaultInjector> injector;
  if (opt.fault_plan) {
    injector.emplace(*opt.fault_plan, opt.inject_seed);
    opt.policy.injector = &*injector;
  }

  // A dedicated injector for the checkpoint I/O sites, so a `*`
  // wildcard in a kernel plan never corrupts the checkpoint and vice
  // versa.
  std::optional<resilience::FaultInjector> io_injector;
  if (opt.io_fault_plan) {
    io_injector.emplace(*opt.io_fault_plan, opt.inject_seed + 1);
  }
  resilience::FaultInjector* io_inj =
      io_injector ? &*io_injector : nullptr;

  const std::uint64_t ckpt_fp = params_fingerprint(opt.rp);
  ResumedRuns resumed;
  if (opt.checkpoint_path) {
    resumed = load_checkpoint(*opt.checkpoint_path, ckpt_fp, io_inj);
    if (!resumed.empty()) {
      std::cerr << "checkpoint: resuming " << resumed.size()
                << " completed kernel runs from " << *opt.checkpoint_path
                << "\n";
    }
  }
  std::vector<native::KernelRunRecord> completed_ok;
  std::uint64_t resumed_points = 0;
  std::uint64_t checkpoint_flushes = 0;

  std::optional<native::SuiteRunner> runner;
  try {
    runner.emplace(registry, opt.rp, opt.policy);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  report::Table t({"kernel", "class", "precision", "reps", "ms/rep",
                   "checksum", "status"});
  report::CsvWriter csv({"kernel", "class", "precision", "threads", "reps",
                         "seconds", "checksum", "status", "attempts",
                         "error"});
  std::map<core::Group, std::pair<double, int>> class_time;
  std::map<resilience::Outcome, int> outcome_count;

  for (const auto& name : names) {
    for (const auto prec : opt.precisions) {
      native::KernelRunRecord rec;
      const auto it = resumed.find(std::make_pair(name, prec));
      if (it != resumed.end()) {
        // Completed in a previous (interrupted) run: reuse the recorded
        // result, skip the kernel entirely.
        rec = it->second;
        ++resumed_points;
        obs::registry().counter("persist.resumed_points").add();
        completed_ok.push_back(rec);
      } else {
        try {
          rec = runner->run_one(name, prec);
        } catch (const std::out_of_range& e) {
          std::cerr << "error: " << e.what() << "\n";
          return 2;
        } catch (const std::exception& e) {
          // Strict mode: the first kernel failure is fatal.
          std::cerr << "error: kernel '" << name << "' ("
                    << core::to_string(prec) << ") failed: " << e.what()
                    << "\n";
          return 2;
        }
        if (opt.checkpoint_path && rec.ok()) {
          // Flush after every completed kernel: the checkpoint is
          // rewritten atomically, so a kill leaves either the previous
          // one or this one — both resumable.
          completed_ok.push_back(rec);
          save_checkpoint(*opt.checkpoint_path, ckpt_fp, completed_ok,
                          io_inj);
          ++checkpoint_flushes;
          obs::registry().counter("persist.flushes").add();
        }
      }
      ++outcome_count[rec.outcome];
      t.add_row({rec.name, std::string(core::to_string(rec.group)),
                 std::string(core::to_string(prec)),
                 std::to_string(rec.reps),
                 report::Table::num_or(rec.seconds_per_rep() * 1e3, 3,
                                       rec.ok()),
                 report::Table::num_or(static_cast<double>(rec.checksum), 4,
                                       rec.ok()),
                 std::string(resilience::to_string(rec.outcome))});
      csv.add_row({rec.name, std::string(core::to_string(rec.group)),
                   std::string(core::to_string(prec)),
                   std::to_string(rec.threads), std::to_string(rec.reps),
                   report::Table::num_or(rec.seconds, 6, rec.ok()),
                   report::Table::num_or(static_cast<double>(rec.checksum),
                                         6, rec.ok()),
                   std::string(resilience::to_string(rec.outcome)),
                   std::to_string(rec.attempts), rec.error});
      if (rec.ok()) {
        auto& [sum, n] = class_time[rec.group];
        sum += rec.seconds;
        ++n;
      }
    }
  }
  std::cout << t.render() << "\n";

  report::Table summary({"class", "kernels x precisions", "total s"});
  for (const auto& [g, v] : class_time) {
    summary.add_row({std::string(core::to_string(g)),
                     std::to_string(v.second),
                     report::Table::num(v.first, 3)});
  }
  std::cout << summary.render();

  int failures = 0;
  for (const auto& [o, n] : outcome_count) {
    if (resilience::is_failure(o)) failures += n;
  }
  if (failures > 0 || outcome_count[resilience::Outcome::Skipped] > 0) {
    report::Table outcomes({"outcome", "count"});
    for (const auto& [o, n] : outcome_count) {
      if (n > 0) {
        outcomes.add_row({std::string(resilience::to_string(o)),
                          std::to_string(n)});
      }
    }
    std::cout << "\n" << outcomes.render();
  }

  if (opt.csv_path) {
    try {
      csv.write(*opt.csv_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }
  if (opt.checkpoint_path) {
    std::cout << "checkpoint: " << resumed_points << " resumed, "
              << checkpoint_flushes << " flushes -> "
              << *opt.checkpoint_path << "\n";
  }
  try {
    write_observability(opt, outcome_count, resumed_points,
                        checkpoint_flushes);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return failures > 0 ? 1 : 0;
}
