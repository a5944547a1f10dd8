// Tests for the cross-model validation subsystem (src/check): the
// golden CSV differ, the invariant checker (green on the paper machines,
// firing on a deliberately mis-calibrated one), the fuzz driver and the
// artifact registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "check/artifacts.hpp"
#include "check/fuzz.hpp"
#include "check/golden.hpp"
#include "check/invariants.hpp"
#include "engine/engine.hpp"
#include "kernels/register_all.hpp"
#include "obs/metrics.hpp"

namespace sgp::check {
namespace {

/// sg2042 with a vector unit realising 1% of ideal scaling: its vector
/// path loses to forced-scalar code, so check_machine reports
/// scalar-floor violations.
machine::MachineDescriptor broken_vector_sg2042() {
  auto m = machine::sg2042();
  m.name = "sg2042-broken-vector";
  m.core.vector->efficiency_fp32 = 0.01;
  return m;
}

// ---------------------------------------------------------- parse_csv --
TEST(ParseCsv, SplitsRowsAndCells) {
  const auto rows = parse_csv("a,b\n1,2\n3,4\n");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"3", "4"}));
}

TEST(ParseCsv, HandlesQuotedCommasQuotesAndNewlines) {
  const auto rows =
      parse_csv("h\n\"with,comma\"\n\"with\"\"quote\"\n\"two\nlines\"\n");
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1][0], "with,comma");
  EXPECT_EQ(rows[2][0], "with\"quote");
  EXPECT_EQ(rows[3][0], "two\nlines");
}

TEST(ParseCsv, HandlesCrlfAndMissingTrailingNewline) {
  const auto rows = parse_csv("a,b\r\n1,2");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST(ParseCsv, EmptyTextGivesNoRows) {
  EXPECT_TRUE(parse_csv("").empty());
}

// ----------------------------------------------------------- diff_csv --
TEST(DiffCsv, IdenticalTextsMatch) {
  const std::string text = "a,b\n1,2\n";
  EXPECT_FALSE(diff_csv(text, text).has_value());
}

TEST(DiffCsv, WithinToleranceMatches) {
  GoldenPolicy policy;
  policy.columns["v"] = CellTolerance{1e-3, 0.0};
  EXPECT_FALSE(diff_csv("k,v\nx,1.0000\n", "k,v\nx,1.0005\n", policy)
                   .has_value());
}

TEST(DiffCsv, BeyondToleranceReportsFirstCell) {
  GoldenPolicy policy;
  policy.columns["v"] = CellTolerance{1e-3, 0.0};
  const auto d =
      diff_csv("k,v\nx,1.00\ny,2.00\n", "k,v\nx,1.00\ny,2.01\n", policy);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->row, 1u);
  EXPECT_EQ(d->col, 1u);
  EXPECT_EQ(d->column, "v");
  EXPECT_EQ(d->expected, "2.00");
  EXPECT_EQ(d->actual, "2.01");
  EXPECT_NE(to_string(*d).find("row 1"), std::string::npos);
}

TEST(DiffCsv, StringsNeverGetNumericSlack) {
  GoldenPolicy policy;
  policy.default_tol = CellTolerance{1e6, 1e6};
  const auto d = diff_csv("k\nfoo\n", "k\nbar\n", policy);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, "cell value");
}

TEST(DiffCsv, HeaderMismatchWinsOverEverything) {
  const auto d = diff_csv("a,b\n1,2\n", "a,c\n1,2\n");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, "header mismatch");
  EXPECT_EQ(d->col, 1u);
}

TEST(DiffCsv, RowCountMismatchIsReported) {
  const auto d = diff_csv("a\n1\n2\n", "a\n1\n");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->reason, "row count");
  EXPECT_EQ(d->expected, "2 data rows");
  EXPECT_EQ(d->actual, "1 data rows");
}

// --------------------------------------------------- InvariantChecker --
TEST(InvariantChecker, Sg2042PointsAreClean) {
  InvariantChecker checker(machine::sg2042());
  CheckReport report;
  for (const char* name : {"TRIAD", "GEMM", "DOT"}) {
    const auto& sig = *kernels::find_signature(name);
    for (const int t : {1, 32, 64}) {
      sim::SimConfig cfg;
      cfg.precision = core::Precision::FP32;
      cfg.nthreads = t;
      cfg.placement = machine::Placement::ClusterCyclic;
      checker.check_point(sig, cfg, report);
    }
    checker.check_thread_monotonicity(sig, sim::SimConfig{}, {1, 8, 64},
                                      report);
  }
  EXPECT_GT(report.points, 0u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

TEST(InvariantChecker, CachesimConsistencyHoldsOnPaperMachines) {
  for (const auto& m : machine::all_machines()) {
    InvariantChecker checker(m);
    CheckReport report;
    checker.check_cachesim_consistency(report);
    EXPECT_TRUE(report.ok())
        << m.name << ": " << to_string(report.violations.front());
  }
}

TEST(InvariantChecker, ScalarFloorFiresOnMiscalibratedVectorUnit) {
  // A machine whose vector unit realises 1% of ideal scaling executes
  // the vector path far slower than forced-scalar code on a
  // compute-bound kernel — exactly the drift the floor exists to catch.
  InvariantChecker checker(broken_vector_sg2042());
  CheckReport report;
  sim::SimConfig cfg;
  cfg.precision = core::Precision::FP32;
  checker.check_point(*kernels::find_signature("GEMM"), cfg, report);
  ASSERT_FALSE(report.ok());
  const auto hit = std::find_if(
      report.violations.begin(), report.violations.end(),
      [](const Violation& v) { return v.invariant == "scalar-floor"; });
  ASSERT_NE(hit, report.violations.end());
  EXPECT_EQ(hit->machine, "sg2042-broken-vector");
  EXPECT_EQ(hit->kernel, "GEMM");
  // The text is rendered only on failure; pin it exactly.
  EXPECT_EQ(hit->where, "FP32 GCC VLS t=1 block");
  EXPECT_EQ(hit->detail,
            "total=3.42671895425 > scalar total 0.350224384 * 1.05");
}

TEST(InvariantChecker, CheckMachineCoversTheGrid) {
  const auto report = check_machine(
      machine::visionfive_v2(),
      {*kernels::find_signature("TRIAD"), *kernels::find_signature("GEMM")});
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
  EXPECT_GT(report.points, 50u);
}

TEST(CheckReport, MergeAccumulates) {
  CheckReport a, b;
  a.points = 3;
  b.points = 4;
  b.violations.push_back(Violation{"x", "m", "k", "w", "d"});
  a.merge(b);
  EXPECT_EQ(a.points, 7u);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_FALSE(a.ok());
}

// ---------------------------------------------------------------- fuzz --
TEST(Fuzz, RandomMachineIsDeterministic) {
  const auto a = random_machine(42);
  const auto b = random_machine(42);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_cores, b.num_cores);
  EXPECT_DOUBLE_EQ(a.core.clock_ghz, b.core.clock_ghz);
  EXPECT_NO_THROW(a.validate());
}

TEST(Fuzz, InvariantsHoldOnRandomMachines) {
  const auto report = fuzz_invariants(2000, 5);
  EXPECT_GT(report.points, 100u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

TEST(Fuzz, UnknownKernelThrows) {
  FuzzOptions opt;
  opt.kernels = {"NO_SUCH_KERNEL"};
  EXPECT_THROW((void)fuzz_invariants(1, 1, opt), std::invalid_argument);
}

// ------------------------------------------- parallel shard determinism --
TEST(Sharding, SerialAndParallelReportsAreIdentical) {
  // sharded_reports merges per-index reports in index order, so worker
  // count must never change what a driver reports.
  const auto serial = fuzz_invariants(2000, 4, {}, /*jobs=*/1);
  const auto parallel = fuzz_invariants(2000, 4, {}, /*jobs=*/4);
  EXPECT_EQ(serial.points, parallel.points);
  ASSERT_EQ(serial.violations.size(), parallel.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(to_string(serial.violations[i]),
              to_string(parallel.violations[i]));
  }
}

TEST(Sharding, CheckMachineIsJobCountInvariant) {
  // Machines with violations, so the comparison covers the rendered
  // violation text, not only the counts, whichever worker ran a shard.
  // The second one's 64 MiB L2 also fails the cachesim pass, whose
  // violations follow every signature's.
  auto big_l2 = broken_vector_sg2042();
  big_l2.name = "sg2042-broken-vector-64mib-l2";
  big_l2.l2.size_bytes *= 64;
  const auto sigs = std::vector<core::KernelSignature>{
      *kernels::find_signature("TRIAD"), *kernels::find_signature("GEMM")};
  for (const auto& m : {broken_vector_sg2042(), big_l2}) {
    const auto serial = check_machine(m, sigs, {}, /*jobs=*/1);
    const auto parallel = check_machine(m, sigs, {}, /*jobs=*/4);
    ASSERT_FALSE(serial.ok()) << m.name;
    EXPECT_EQ(serial.points, parallel.points) << m.name;
    ASSERT_EQ(serial.violations.size(), parallel.violations.size())
        << m.name;
    for (std::size_t i = 0; i < serial.violations.size(); ++i) {
      EXPECT_EQ(to_string(serial.violations[i]),
                to_string(parallel.violations[i]));
    }
  }
  const auto replays = [] {
    for (const auto& [name, value] : obs::registry().snapshot().counters) {
      if (name == "cachesim.replays") return value;
    }
    return std::uint64_t{0};
  };
  const auto replays_before = replays();
  const auto report = check_machine(big_l2, sigs, {}, /*jobs=*/4);
  // Both cachesim cases replay through cachesim::replay, so both are
  // spanned and counted.
  EXPECT_EQ(replays() - replays_before, 2u);
  ASSERT_GE(report.violations.size(), 3u);
  EXPECT_EQ(report.violations.front().kernel, "TRIAD");
  // The 64 MiB L2 holds the whole DRAM-streaming sweep: the analytic
  // model serves it from L2, and the measured rep never gets past L2,
  // so its last-level miss rate is 0 and it moves no DRAM bytes.
  std::vector<std::string> dram_stream;
  for (const auto& v : report.violations) {
    if (v.kernel == "synthetic-dram-stream") {
      dram_stream.push_back(to_string(v));
    }
  }
  const std::string where =
      ": sg2042-broken-vector-64mib-l2 / synthetic-dram-stream "
      "[ws=167772160B t=64]: ";
  EXPECT_EQ(dram_stream,
            (std::vector<std::string>{
                "cachesim-serving-level" + where +
                    "analytic model serves a 2.5x-LLC working set from L2",
                "cachesim-steady-misses" + where +
                    "steady last-level miss rate 0 for a DRAM-streaming "
                    "sweep",
                "cachesim-traffic" + where +
                    "simulated per-rep DRAM traffic 0B vs analytic streamed "
                    "bytes 2621440B (outside 1.25x..3x)"}));
  EXPECT_EQ(report.violations.back().kernel, "synthetic-dram-stream");
}

TEST(Sharding, CheckMachineCountersMatchTheReport) {
  // Sum of every check.<invariant><suffix> counter.
  const auto total = [](const obs::MetricsSnapshot& snap,
                        const std::string& suffix) {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("check.", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        sum += value;
      }
    }
    return sum;
  };
  const auto sigs = std::vector<core::KernelSignature>{
      *kernels::find_signature("TRIAD"), *kernels::find_signature("GEMM")};
  const std::pair<std::string, std::function<CheckReport(int)>> runs[] = {
      {"check_machine",
       [&](int jobs) {
         return check_machine(broken_vector_sg2042(), sigs, {}, jobs);
       }},
      {"fuzz_cachesim", [](int jobs) { return fuzz_cachesim(1, 3, jobs); }},
      {"fuzz_batch_identity",
       [](int jobs) { return fuzz_batch_identity(1, 3, jobs); }},
  };
  for (const auto& [what, run] : runs) {
    for (const int jobs : {1, 4}) {
      const auto before = obs::registry().snapshot();
      const auto report = run(jobs);
      const auto after = obs::registry().snapshot();
      EXPECT_GT(report.points, 0u) << what << " jobs=" << jobs;
      EXPECT_EQ(total(after, ".points") - total(before, ".points"),
                report.points)
          << what << " jobs=" << jobs;
      EXPECT_EQ(total(after, ".violations") - total(before, ".violations"),
                report.violations.size())
          << what << " jobs=" << jobs;
      if (what != "check_machine") continue;
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(after.counter_or("check.scalar-floor.violations") -
                    before.counter_or("check.scalar-floor.violations"),
                report.violations.size())
          << "jobs=" << jobs;
    }
  }
}

// --------------------------------------------------- cachesim agreement --
TEST(CachesimAgreement, PaperMachinesAreClean) {
  for (const auto& m : machine::all_machines()) {
    const auto report = cachesim_agreement(m);
    EXPECT_GT(report.points, 0u);
    EXPECT_TRUE(report.ok())
        << m.name << ": " << to_string(report.violations.front());
  }
}

TEST(CachesimAgreement, RandomMachinesAreClean) {
  const auto report = fuzz_cachesim(3000, 4, /*jobs=*/4);
  EXPECT_GT(report.points, 20u);
  EXPECT_TRUE(report.ok()) << to_string(report.violations.front());
}

// ----------------------------------------------------------- artifacts --
TEST(Artifacts, RegistryCoversEveryFigureAndTable) {
  const auto& names = artifact_names();
  EXPECT_EQ(names.size(), 11u);
  EXPECT_EQ(names.front(), "fig1");
  EXPECT_EQ(names.back(), "tab4");
}

TEST(Artifacts, UnknownNameThrows) {
  engine::SweepEngine eng;
  EXPECT_THROW((void)run_artifact("fig99", eng), std::invalid_argument);
}

TEST(Artifacts, Tab4MatchesItsPolicyColumns) {
  const auto csv = tab4_csv();
  const auto rows = parse_csv(csv.text());
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "cpu");
  EXPECT_EQ(rows[0][7], "mem_bw_gbs");
  EXPECT_EQ(rows.size(), 5u);  // header + the four x86 parts
}

TEST(Artifacts, CachedAndUncachedEnginesRenderIdentically) {
  engine::SweepEngine cached;
  engine::SweepEngine uncached(engine::EngineOptions{.use_cache = false});
  const auto a = run_artifact("fig1", cached);
  const auto b = run_artifact("fig1", uncached);
  EXPECT_EQ(a.csv.text(), b.csv.text());
  EXPECT_FALSE(diff_csv(a.csv.text(), b.csv.text(), a.policy).has_value());
}

}  // namespace
}  // namespace sgp::check
