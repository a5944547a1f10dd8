#include "native/suite_runner.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/guard.hpp"
#include "threading/pool.hpp"

namespace sgp::native {

using resilience::Outcome;

namespace {

/// Process-wide suite metrics, aggregated over every SuiteRunner.
struct SuiteMetrics {
  obs::Counter& kernels = obs::registry().counter("suite.kernels");
  obs::Counter& retries = obs::registry().counter("suite.retries");
  obs::Counter& quarantined =
      obs::registry().counter("suite.quarantined");
  obs::Counter& failures = obs::registry().counter("suite.failures");
  obs::Counter& timeouts = obs::registry().counter("suite.timeouts");

  static SuiteMetrics& get() {
    static SuiteMetrics* m = new SuiteMetrics();
    return *m;
  }
};

void count_outcome(const KernelRunRecord& rec) {
  SuiteMetrics& sm = SuiteMetrics::get();
  switch (rec.outcome) {
    case Outcome::Ok:
      break;
    case Outcome::Skipped:
      sm.quarantined.add();
      break;
    case Outcome::TimedOut:
      sm.timeouts.add();
      break;
    default:
      sm.failures.add();
      break;
  }
}

}  // namespace

void RunPolicy::validate() const {
  retry.validate();
  // !(x >= 0) also rejects NaN, which a < comparison would let through.
  if (!(kernel_timeout_s >= 0.0)) {
    throw std::invalid_argument("RunPolicy: kernel_timeout_s must be >= 0");
  }
}

SuiteRunner::SuiteRunner(const core::Registry& registry, core::RunParams rp)
    : SuiteRunner(registry, rp, RunPolicy{}) {}

SuiteRunner::SuiteRunner(const core::Registry& registry, core::RunParams rp,
                         RunPolicy policy)
    : registry_(registry), rp_(rp), policy_(std::move(policy)) {
  policy_.validate();
  if (rp_.num_threads <= 1) {
    exec_ = std::make_unique<core::SerialExecutor>();
  } else {
    exec_ = std::make_unique<threading::ThreadPool>(rp_.num_threads);
  }
}

SuiteRunner::~SuiteRunner() = default;

bool SuiteRunner::quarantined(std::string_view name) const {
  for (const auto& q : policy_.quarantine) {
    if (q == name) return true;
  }
  return false;
}

KernelRunRecord SuiteRunner::run_attempt(std::string_view name,
                                         core::Precision p,
                                         std::exception_ptr& error_out) {
  KernelRunRecord rec;
  rec.name = name;
  rec.group = registry_.group_of(name);
  rec.precision = p;
  rec.threads = rp_.num_threads;

  const resilience::ArmedFault fault =
      policy_.injector ? policy_.injector->arm(name) : resilience::ArmedFault{};

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (policy_.kernel_timeout_s > 0.0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(policy_.kernel_timeout_s));
  }
  resilience::GuardedExecutor guarded(*exec_, deadline, fault,
                                      std::string(name));

  try {
    // A fresh kernel per attempt: a failed attempt may have left data
    // half-initialised, and construction is cheap by contract.
    auto kernel = registry_.create(name);
    const auto result = kernel->run_native(p, rp_, guarded);
    rec.seconds = result.seconds;
    rec.reps = result.reps;
    rec.checksum = fault.kind == resilience::FaultKind::CorruptChecksum
                       ? std::numeric_limits<long double>::quiet_NaN()
                       : result.checksum;
    if (!std::isfinite(static_cast<double>(rec.checksum))) {
      rec.outcome = Outcome::CorruptChecksum;
      rec.error = "non-finite checksum";
    }
  } catch (const resilience::DeadlineExceeded& e) {
    rec.outcome = Outcome::TimedOut;
    rec.error = e.what();
    error_out = std::current_exception();
  } catch (const std::exception& e) {
    rec.outcome = Outcome::Failed;
    rec.error = e.what();
    error_out = std::current_exception();
  } catch (...) {
    rec.outcome = Outcome::Failed;
    rec.error = "unknown error";
    error_out = std::current_exception();
  }
  return rec;
}

KernelRunRecord SuiteRunner::run_one(std::string_view name,
                                     core::Precision p) {
  if (!registry_.contains(name)) {
    std::string msg = "unknown kernel '" + std::string(name) + "'";
    const std::string hint = registry_.closest(name);
    if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
    throw std::out_of_range(msg);
  }
  SuiteMetrics::get().kernels.add();
  const obs::Span span("kernel:" + std::string(name));
  if (quarantined(name)) {
    KernelRunRecord rec;
    rec.name = name;
    rec.group = registry_.group_of(name);
    rec.precision = p;
    rec.threads = rp_.num_threads;
    rec.outcome = Outcome::Skipped;
    rec.error = "quarantined";
    rec.attempts = 0;
    count_outcome(rec);
    return rec;
  }

  const int max_attempts = std::max(1, policy_.retry.max_attempts);
  KernelRunRecord rec;
  std::exception_ptr error;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    error = nullptr;
    if (attempt > 1) SuiteMetrics::get().retries.add();
    rec = run_attempt(name, p, error);
    rec.attempts = attempt;
    if (rec.ok() || !resilience::is_retryable(rec.outcome)) break;
    if (attempt < max_attempts) {
      const double pause_ms = policy_.retry.backoff_ms(attempt);
      if (pause_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(pause_ms));
      }
    }
  }

  count_outcome(rec);
  // Strict mode keeps the historical contract: a kernel failure
  // surfaces as the original exception. CorruptChecksum has no
  // exception to rethrow and is reported through the record instead.
  if (!policy_.keep_going && error != nullptr) {
    std::rethrow_exception(error);
  }
  return rec;
}

std::vector<KernelRunRecord> SuiteRunner::run_all(core::Precision p) {
  std::vector<KernelRunRecord> out;
  for (const auto& name : registry_.names()) {
    out.push_back(run_one(name, p));
  }
  return out;
}

std::vector<KernelRunRecord> SuiteRunner::run_group(core::Group g,
                                                    core::Precision p) {
  std::vector<KernelRunRecord> out;
  for (const auto& name : registry_.names(g)) {
    out.push_back(run_one(name, p));
  }
  return out;
}

}  // namespace sgp::native
