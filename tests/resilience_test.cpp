// Tests for the resilience subsystem: fault plans and injection,
// retry/backoff policies, soft deadlines, and failure-isolating
// suite execution (the acceptance scenario of a throw/nan/delay triple
// surviving a keep-going run with typed outcomes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "kernels/register_all.hpp"
#include "native/suite_runner.hpp"
#include "resilience/fault_injector.hpp"
#include "resilience/guard.hpp"
#include "resilience/outcome.hpp"
#include "resilience/retry.hpp"
#include "threading/pool.hpp"

namespace sgp {
namespace {

using resilience::ArmedFault;
using resilience::FaultInjector;
using resilience::FaultKind;
using resilience::FaultPlan;
using resilience::Outcome;
using resilience::RetryPolicy;

core::RunParams tiny(int threads = 1) {
  core::RunParams rp;
  rp.size_factor = 0.002;
  rp.rep_factor = 1e-9;
  rp.num_threads = threads;
  return rp;
}

// -------------------------------------------------------- fault plans --
TEST(FaultPlan, ParsesThrowNanDelay) {
  const auto plan =
      FaultPlan::parse("COPY:throw,MUL:nan,TRIAD:delay:250");
  ASSERT_EQ(plan.specs().size(), 3u);
  EXPECT_EQ(plan.specs()[0].kernel, "COPY");
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::Throw);
  EXPECT_EQ(plan.specs()[0].max_triggers, -1);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::CorruptChecksum);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::Delay);
  EXPECT_DOUBLE_EQ(plan.specs()[2].delay_ms, 250.0);
}

TEST(FaultPlan, ParsesTriggerBudgetsAndProbability) {
  const auto plan = FaultPlan::parse("COPY:throw:1,ADD:delay:50:2,DOT:nan@0.5");
  EXPECT_EQ(plan.specs()[0].max_triggers, 1);
  EXPECT_EQ(plan.specs()[1].max_triggers, 2);
  EXPECT_DOUBLE_EQ(plan.specs()[1].delay_ms, 50.0);
  EXPECT_DOUBLE_EQ(plan.specs()[2].probability, 0.5);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("COPY"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("COPY:explode"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("COPY:delay"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("COPY:delay:-5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("COPY:throw:0"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(":throw"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("COPY:throw@1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("COPY:throw:1:2"),
               std::invalid_argument);
}

TEST(FaultInjector, ConsumesTriggerBudget) {
  FaultInjector inj(FaultPlan::parse("COPY:throw:2"));
  EXPECT_EQ(inj.arm("COPY").kind, FaultKind::Throw);
  EXPECT_EQ(inj.arm("COPY").kind, FaultKind::Throw);
  EXPECT_EQ(inj.arm("COPY").kind, FaultKind::None);
  EXPECT_EQ(inj.arm("MUL").kind, FaultKind::None);
  EXPECT_EQ(inj.armed_count("COPY"), 2);
}

TEST(FaultInjector, WildcardMatchesEveryKernel) {
  FaultInjector inj(FaultPlan::parse("*:nan"));
  EXPECT_EQ(inj.arm("COPY").kind, FaultKind::CorruptChecksum);
  EXPECT_EQ(inj.arm("GEMM").kind, FaultKind::CorruptChecksum);
}

TEST(FaultInjector, ProbabilisticFaultsAreSeedDeterministic) {
  auto draws = [](unsigned seed) {
    FaultInjector inj(FaultPlan::parse("COPY:throw@0.5"), seed);
    std::string out;
    for (int i = 0; i < 32; ++i) {
      out += inj.arm("COPY").kind == FaultKind::Throw ? '1' : '0';
    }
    return out;
  };
  EXPECT_EQ(draws(1), draws(1));  // reproducible
  EXPECT_NE(draws(1), std::string(32, '1'));  // actually probabilistic
  EXPECT_NE(draws(1), std::string(32, '0'));
}

// ------------------------------------------------------- retry policy --
TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy r;
  r.max_attempts = 5;
  r.backoff_initial_ms = 10.0;
  r.backoff_multiplier = 2.0;
  r.backoff_max_ms = 35.0;
  EXPECT_DOUBLE_EQ(r.backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(3), 35.0);  // capped from 40
  EXPECT_DOUBLE_EQ(r.backoff_ms(0), 0.0);
  RetryPolicy off;  // max_attempts == 1: never pauses
  EXPECT_DOUBLE_EQ(off.backoff_ms(1), 0.0);
}

TEST(RetryPolicy, ValidateRejectsNonsense) {
  RetryPolicy r;
  r.max_attempts = 0;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.backoff_multiplier = 0.5;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.backoff_initial_ms = -1.0;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.jitter = -0.1;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = RetryPolicy{};
  r.jitter = 1.0;  // the factor could hit 2x-and-beyond; refuse
  EXPECT_THROW(r.validate(), std::invalid_argument);
}

TEST(RetryPolicy, JitterIsSeedDeterministicAndBounded) {
  RetryPolicy r;
  r.max_attempts = 6;
  r.backoff_initial_ms = 10.0;
  r.backoff_multiplier = 2.0;
  r.backoff_max_ms = 1000.0;
  r.jitter = 0.5;

  bool any_jittered = false;
  for (int k = 1; k <= 5; ++k) {
    const double exact = std::min(10.0 * std::pow(2.0, k - 1), 1000.0);
    const double d = r.backoff_ms(k);
    // Deterministic: same policy + seed + retry index => same delay.
    EXPECT_DOUBLE_EQ(d, RetryPolicy{r}.backoff_ms(k));
    // Bounded: within +-jitter of the exponential schedule and the cap.
    EXPECT_GE(d, exact * (1.0 - r.jitter));
    EXPECT_LT(d, exact * (1.0 + r.jitter));
    EXPECT_LE(d, r.backoff_max_ms);
    if (d != exact) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);  // jitter actually perturbs the schedule

  // A different seed spreads differently (the fleet-desync property).
  RetryPolicy other = r;
  other.jitter_seed = r.jitter_seed + 1;
  bool any_differs = false;
  for (int k = 1; k <= 5; ++k) {
    if (other.backoff_ms(k) != r.backoff_ms(k)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(RetryPolicy, ZeroJitterKeepsTheExactSchedule) {
  RetryPolicy r;
  r.max_attempts = 4;
  r.backoff_initial_ms = 10.0;
  r.backoff_multiplier = 2.0;
  r.backoff_max_ms = 35.0;
  r.jitter = 0.0;  // the default: byte-compatible with the old policy
  EXPECT_DOUBLE_EQ(r.backoff_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(r.backoff_ms(3), 35.0);
}

// ------------------------------------------------------------- guards --
TEST(GuardedExecutor, InjectsThrowOnceIntoChunks) {
  core::SerialExecutor serial;
  resilience::GuardedExecutor guarded(
      serial, std::nullopt, ArmedFault{FaultKind::Throw, 0.0}, "K");
  EXPECT_THROW(
      guarded.parallel_for(4, [](std::size_t, std::size_t, int) {}),
      resilience::InjectedFault);
  // The fault fires once per attempt: the next region runs clean.
  int calls = 0;
  guarded.parallel_for(4,
                       [&](std::size_t, std::size_t, int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(GuardedExecutor, DeadlineIsCheckedAgainstTheClock) {
  core::SerialExecutor serial;
  const auto now = std::chrono::steady_clock::now();
  // A deadline already behind the clock stops the region before any
  // chunk runs.
  int calls = 0;
  resilience::GuardedExecutor past(serial, now - std::chrono::seconds(1),
                                   ArmedFault{}, "K");
  EXPECT_THROW(
      past.parallel_for(4, [&](std::size_t, std::size_t, int) { ++calls; }),
      resilience::DeadlineExceeded);
  EXPECT_EQ(calls, 0);
  // A far-future deadline never fires: every chunk of the pool runs.
  threading::ThreadPool pool(4);
  std::atomic<int> chunks{0};
  resilience::GuardedExecutor future(pool, now + std::chrono::hours(1),
                                     ArmedFault{}, "K");
  future.parallel_for(1000,
                      [&](std::size_t, std::size_t, int) { ++chunks; });
  EXPECT_EQ(chunks.load(), pool.max_chunks());
}

TEST(GuardedExecutor, ThrowSurfacesThroughThreadPool) {
  threading::ThreadPool pool(4);
  resilience::GuardedExecutor guarded(
      pool, std::nullopt, ArmedFault{FaultKind::Throw, 0.0}, "K");
  EXPECT_THROW(
      guarded.parallel_for(1000, [](std::size_t, std::size_t, int) {}),
      resilience::InjectedFault);
}

// -------------------------------------------- resilient suite running --
TEST(ResilientSuite, AcceptanceTriple) {
  // One throwing, one checksum-corrupting, one delayed-past-deadline
  // kernel: keep-going completes the whole group and reports exactly
  // those three as Failed / CorruptChecksum / TimedOut.
  const auto reg = kernels::make_registry();
  FaultInjector inj(
      FaultPlan::parse("COPY:throw,MUL:nan,TRIAD:delay:500"));
  native::RunPolicy policy;
  policy.keep_going = true;
  policy.kernel_timeout_s = 0.1;
  policy.injector = &inj;
  native::SuiteRunner runner(reg, tiny(), policy);

  const auto recs =
      runner.run_group(core::Group::Stream, core::Precision::FP32);
  ASSERT_EQ(recs.size(), 5u);
  int failures = 0;
  for (const auto& r : recs) {
    if (r.name == "COPY") {
      EXPECT_EQ(r.outcome, Outcome::Failed);
      EXPECT_NE(r.error.find("injected fault"), std::string::npos);
    } else if (r.name == "MUL") {
      EXPECT_EQ(r.outcome, Outcome::CorruptChecksum);
      EXPECT_TRUE(std::isnan(static_cast<double>(r.checksum)));
    } else if (r.name == "TRIAD") {
      EXPECT_EQ(r.outcome, Outcome::TimedOut);
    } else {
      EXPECT_EQ(r.outcome, Outcome::Ok) << r.name << ": " << r.error;
    }
    failures += resilience::is_failure(r.outcome) ? 1 : 0;
  }
  EXPECT_EQ(failures, 3);
}

TEST(ResilientSuite, RetryRecoversTransientFault) {
  const auto reg = kernels::make_registry();
  FaultInjector inj(FaultPlan::parse("COPY:throw:1"));
  native::RunPolicy policy;
  policy.keep_going = true;
  policy.retry.max_attempts = 3;
  policy.retry.backoff_initial_ms = 1.0;
  policy.injector = &inj;
  native::SuiteRunner runner(reg, tiny(), policy);

  const auto rec = runner.run_one("COPY", core::Precision::FP64);
  EXPECT_EQ(rec.outcome, Outcome::Ok);
  EXPECT_EQ(rec.attempts, 2);  // first attempt faulted, retry succeeded
  EXPECT_EQ(inj.armed_count("COPY"), 1);
}

TEST(ResilientSuite, PersistentFaultExhaustsRetries) {
  const auto reg = kernels::make_registry();
  FaultInjector inj(FaultPlan::parse("COPY:throw"));
  native::RunPolicy policy;
  policy.keep_going = true;
  policy.retry.max_attempts = 3;
  policy.retry.backoff_initial_ms = 1.0;
  policy.injector = &inj;
  native::SuiteRunner runner(reg, tiny(), policy);

  const auto rec = runner.run_one("COPY", core::Precision::FP64);
  EXPECT_EQ(rec.outcome, Outcome::Failed);
  EXPECT_EQ(rec.attempts, 3);
}

TEST(ResilientSuite, QuarantineSkipsWithoutRunning) {
  const auto reg = kernels::make_registry();
  native::RunPolicy policy;
  policy.quarantine = {"DOT"};
  native::SuiteRunner runner(reg, tiny(), policy);

  const auto rec = runner.run_one("DOT", core::Precision::FP32);
  EXPECT_EQ(rec.outcome, Outcome::Skipped);
  EXPECT_EQ(rec.attempts, 0);
  EXPECT_EQ(rec.reps, 0u);
  // Quarantine never blocks the rest of the group.
  const auto recs =
      runner.run_group(core::Group::Stream, core::Precision::FP32);
  int skipped = 0, ok = 0;
  for (const auto& r : recs) {
    skipped += r.outcome == Outcome::Skipped ? 1 : 0;
    ok += r.outcome == Outcome::Ok ? 1 : 0;
  }
  EXPECT_EQ(skipped, 1);
  EXPECT_EQ(ok, 4);
}

TEST(ResilientSuite, StrictModeRethrowsOriginalException) {
  const auto reg = kernels::make_registry();
  FaultInjector inj(FaultPlan::parse("COPY:throw"));
  native::RunPolicy policy;  // keep_going = false
  policy.injector = &inj;
  native::SuiteRunner runner(reg, tiny(), policy);
  EXPECT_THROW((void)runner.run_one("COPY", core::Precision::FP32),
               resilience::InjectedFault);
}

TEST(ResilientSuite, UnknownKernelSuggestsClosestName) {
  const auto reg = kernels::make_registry();
  native::SuiteRunner runner(reg, tiny());
  try {
    (void)runner.run_one("DAXPZ", core::Precision::FP64);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("DAXPZ"), std::string::npos) << msg;
    EXPECT_NE(msg.find("DAXPY"), std::string::npos) << msg;
  }
}

TEST(ResilientSuite, KeepGoingRunAllReturnsCompleteRecordSet) {
  const auto reg = kernels::make_registry();
  FaultInjector inj(FaultPlan::parse("DAXPY:throw,GEMM:nan"));
  native::RunPolicy policy;
  policy.keep_going = true;
  policy.injector = &inj;
  native::SuiteRunner runner(reg, tiny(), policy);

  const auto recs = runner.run_all(core::Precision::FP32);
  EXPECT_EQ(recs.size(), reg.size());
  int bad = 0;
  for (const auto& r : recs) bad += resilience::is_failure(r.outcome);
  EXPECT_EQ(bad, 2);
}

TEST(ResilientSuite, InjectionWorksUnderThreadPool) {
  // The injected throw fires inside a pool chunk; the pool must survive
  // it and the next kernel must run normally on the same pool.
  const auto reg = kernels::make_registry();
  FaultInjector inj(FaultPlan::parse("COPY:throw:1"));
  native::RunPolicy policy;
  policy.keep_going = true;
  policy.injector = &inj;
  native::SuiteRunner runner(reg, tiny(4), policy);

  const auto bad = runner.run_one("COPY", core::Precision::FP32);
  EXPECT_EQ(bad.outcome, Outcome::Failed);
  const auto good = runner.run_one("TRIAD", core::Precision::FP32);
  EXPECT_EQ(good.outcome, Outcome::Ok);
  EXPECT_EQ(good.threads, 4);
}

TEST(ResilientSuite, PolicyValidationAtConstruction) {
  const auto reg = kernels::make_registry();
  native::RunPolicy policy;
  policy.kernel_timeout_s = -1.0;
  EXPECT_THROW(native::SuiteRunner(reg, tiny(), policy),
               std::invalid_argument);
  policy = native::RunPolicy{};
  policy.retry.max_attempts = 0;
  EXPECT_THROW(native::SuiteRunner(reg, tiny(), policy),
               std::invalid_argument);
}

TEST(Outcome, StringsAndClassification) {
  EXPECT_EQ(resilience::to_string(Outcome::Ok), "ok");
  EXPECT_EQ(resilience::to_string(Outcome::CorruptChecksum),
            "corrupt-checksum");
  EXPECT_TRUE(resilience::is_failure(Outcome::TimedOut));
  EXPECT_FALSE(resilience::is_failure(Outcome::Skipped));
  EXPECT_FALSE(resilience::is_failure(Outcome::Ok));
}

}  // namespace
}  // namespace sgp
