// Tests for native execution through the registry: the direct
// `registry.create(name)->run_native(p, rp, exec)` call that suite_cli
// and quickstart make, serial and on the thread pool.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/register_all.hpp"
#include "threading/pool.hpp"

namespace sgp {
namespace {

core::RunParams tiny() {
  core::RunParams rp;
  rp.size_factor = 0.002;
  rp.rep_factor = 1e-9;
  return rp;
}

core::KernelBase::NativeResult run(const core::Registry& reg,
                                   const std::string& name,
                                   core::Precision p, core::Executor& exec) {
  return reg.create(name)->run_native(p, tiny(), exec);
}

TEST(NativeRun, UnknownKernelSuggestsClosestName) {
  const auto reg = kernels::make_registry();
  try {
    (void)reg.create("DAXPZ");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("DAXPZ"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'DAXPY'"), std::string::npos) << msg;
  }
}

TEST(NativeRun, OneRunReportsRepsTimeAndChecksum) {
  const auto reg = kernels::make_registry();
  core::SerialExecutor exec;
  const auto res = run(reg, "DAXPY", core::Precision::FP32, exec);
  EXPECT_EQ(res.reps, 1u);
  EXPECT_GE(res.seconds, 0.0);
  EXPECT_TRUE(std::isfinite(static_cast<double>(res.checksum)));
}

TEST(NativeRun, GroupRunCoversWholeGroup) {
  const auto reg = kernels::make_registry();
  core::SerialExecutor exec;
  const auto names = reg.names(core::Group::Stream);
  ASSERT_EQ(names.size(), 5u);
  for (const auto& name : names) {
    EXPECT_EQ(reg.create(name)->group(), core::Group::Stream) << name;
    const auto res = run(reg, name, core::Precision::FP64, exec);
    EXPECT_TRUE(std::isfinite(static_cast<double>(res.checksum))) << name;
  }
}

TEST(NativeRun, WholeSuiteRuns) {
  const auto reg = kernels::make_registry();
  core::SerialExecutor exec;
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 64u);
  for (const auto& name : names) {
    const auto res = run(reg, name, core::Precision::FP32, exec);
    EXPECT_EQ(res.reps, 1u) << name;
  }
}

TEST(NativeRun, ThreadPoolAgreesWithSerial) {
  const auto reg = kernels::make_registry();
  core::SerialExecutor serial;
  threading::ThreadPool pool(3);
  const auto a = run(reg, "TRIAD", core::Precision::FP64, serial);
  const auto b = run(reg, "TRIAD", core::Precision::FP64, pool);
  EXPECT_NEAR(static_cast<double>(a.checksum),
              static_cast<double>(b.checksum),
              1e-6 * std::abs(static_cast<double>(a.checksum)));
}

}  // namespace
}  // namespace sgp
