// Native execution backend: really runs kernels (serial or on the
// thread pool), timing them and collecting checksums. Execution is
// resilient: every kernel ends in a typed Outcome, with optional
// per-kernel soft deadlines, bounded retries, quarantine lists, fault
// injection, and a keep-going mode in which run_all always returns a
// complete record set instead of dying on the first bad kernel.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "core/run_params.hpp"
#include "core/types.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/outcome.hpp"
#include "resilience/retry.hpp"

namespace sgp::native {

struct KernelRunRecord {
  std::string name;
  core::Group group = core::Group::Basic;
  core::Precision precision = core::Precision::FP64;
  long double checksum = 0.0L;
  double seconds = 0.0;
  std::size_t reps = 0;
  int threads = 1;
  resilience::Outcome outcome = resilience::Outcome::Ok;
  std::string error;  ///< what() of the failure; empty when ok/skipped
  int attempts = 1;   ///< attempts consumed (0 when quarantined)

  bool ok() const { return outcome == resilience::Outcome::Ok; }

  double seconds_per_rep() const {
    return reps == 0 ? 0.0 : seconds / static_cast<double>(reps);
  }
};

/// How the runner reacts to kernels that fail, hang, or corrupt data.
/// The default policy preserves the historical strict behaviour:
/// exceptions propagate to the caller, no deadlines, no retries.
struct RunPolicy {
  /// Record failures and continue instead of rethrowing.
  bool keep_going = false;
  /// Per-kernel soft deadline in seconds; 0 disables it. Soft: the
  /// clock is compared with the deadline at executor chunk boundaries,
  /// so a chunk that overruns is only detected at the next boundary.
  double kernel_timeout_s = 0.0;
  /// Bounded retry with exponential backoff for transient faults.
  resilience::RetryPolicy retry;
  /// Kernels to skip entirely (reported as Outcome::Skipped).
  std::vector<std::string> quarantine;
  /// Optional fault injector (not owned; must outlive the runner).
  resilience::FaultInjector* injector = nullptr;

  /// Throws std::invalid_argument on nonsensical parameters (negative
  /// or NaN kernel_timeout_s, bad retry policy). The SuiteRunner
  /// constructor runs this, and CLIs call it at parse time so bad
  /// flags exit 64 before any kernel work starts.
  void validate() const;
};

class SuiteRunner {
 public:
  /// The registry must outlive the runner. Spawns rp.num_threads workers.
  SuiteRunner(const core::Registry& registry, core::RunParams rp);
  SuiteRunner(const core::Registry& registry, core::RunParams rp,
              RunPolicy policy);
  ~SuiteRunner();

  SuiteRunner(const SuiteRunner&) = delete;
  SuiteRunner& operator=(const SuiteRunner&) = delete;

  const RunPolicy& policy() const noexcept { return policy_; }

  /// Runs one kernel under the policy. Throws std::out_of_range (with a
  /// closest-match suggestion) for unknown names in every mode; in
  /// strict mode (!keep_going) kernel failures rethrow the underlying
  /// exception, in keep-going mode they come back as records.
  KernelRunRecord run_one(std::string_view name, core::Precision p);

  /// Runs the whole suite (registry order). With keep_going, always
  /// returns one record per kernel, whatever happened to each.
  std::vector<KernelRunRecord> run_all(core::Precision p);

  /// Runs every kernel of one group.
  std::vector<KernelRunRecord> run_group(core::Group g, core::Precision p);

 private:
  KernelRunRecord run_attempt(std::string_view name, core::Precision p,
                              std::exception_ptr& error_out);
  bool quarantined(std::string_view name) const;

  const core::Registry& registry_;
  core::RunParams rp_;
  RunPolicy policy_;
  std::unique_ptr<core::Executor> exec_;
};

}  // namespace sgp::native
