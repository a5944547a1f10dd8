// Contract tests for the batched evaluation path: Simulator::run_batch
// must be bit-identical to per-point Simulator::run (also for the
// points written before a throwing one), the structured note fields
// must render the exact historical strings, the engine's batched path
// must survive concurrent run_grid callers, and the sgp-serve note
// output is pinned against a golden captured before notes became
// structured.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/model.hpp"
#include "engine/engine.hpp"
#include "kernels/register_all.hpp"
#include "machine/descriptor.hpp"
#include "machine/placement.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"

namespace sgp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const sim::TimeBreakdown& a,
                      const sim::TimeBreakdown& b, const std::string& ctx) {
  EXPECT_TRUE(same_bits(a.compute_s, b.compute_s)) << ctx;
  EXPECT_TRUE(same_bits(a.memory_s, b.memory_s)) << ctx;
  EXPECT_TRUE(same_bits(a.sync_s, b.sync_s)) << ctx;
  EXPECT_TRUE(same_bits(a.atomic_s, b.atomic_s)) << ctx;
  EXPECT_TRUE(same_bits(a.total_s, b.total_s)) << ctx;
  EXPECT_EQ(a.serving, b.serving) << ctx;
  EXPECT_EQ(a.vector_path, b.vector_path) << ctx;
  EXPECT_EQ(a.note, b.note) << ctx;
  EXPECT_EQ(a.note_compiler, b.note_compiler) << ctx;
  EXPECT_EQ(a.note_mode, b.note_mode) << ctx;
  EXPECT_EQ(a.note_rollback, b.note_rollback) << ctx;
}

/// The full valid config grid on `m`: every (compiler, mode) pair
/// compiler::plan accepts, both precisions, all placements, a spread of
/// thread counts.
std::vector<sim::SimConfig> full_grid(const machine::MachineDescriptor& m) {
  std::vector<sim::SimConfig> grid;
  const std::pair<core::CompilerId, core::VectorMode> combos[] = {
      {core::CompilerId::Gcc, core::VectorMode::Scalar},
      {core::CompilerId::Gcc, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::Scalar},
      {core::CompilerId::Clang, core::VectorMode::VLS},
      {core::CompilerId::Clang, core::VectorMode::VLA},
  };
  for (const int t : {1, 2, 4, 7, 16, 32, 64}) {
    if (t > m.num_cores) continue;
    for (const auto prec : core::all_precisions) {
      for (const auto placement : machine::all_placements) {
        for (const auto& [comp, mode] : combos) {
          sim::SimConfig cfg;
          cfg.nthreads = t;
          cfg.precision = prec;
          cfg.placement = placement;
          cfg.compiler = comp;
          cfg.vector_mode = mode;
          grid.push_back(cfg);
        }
      }
    }
  }
  return grid;
}

TEST(SimBatch, BatchMatchesScalarBitForBitAcrossTheGrid) {
  const sim::Simulator sim(machine::sg2042());
  const auto grid = full_grid(sim.machine());
  for (const char* name :
       {"TRIAD", "DAXPY", "GEMM", "DOT", "FIR", "SORT", "JACOBI_2D"}) {
    const auto& sig = *kernels::find_signature(name);
    std::vector<sim::TimeBreakdown> batch(grid.size());
    sim.run_batch(sig, grid, batch);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      expect_identical(sim.run(sig, grid[i]), batch[i],
                       std::string(name) + " point " + std::to_string(i));
    }
  }
}

TEST(SimBatch, EmptyAndSinglePointBatches) {
  const sim::Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");

  std::vector<sim::SimConfig> none;
  std::vector<sim::TimeBreakdown> none_out;
  sim.run_batch(sig, none, none_out);  // must not throw

  sim::SimConfig cfg;
  cfg.nthreads = 4;
  std::vector<sim::TimeBreakdown> one(1);
  sim.run_batch(sig, std::span<const sim::SimConfig>(&cfg, 1), one);
  expect_identical(sim.run(sig, cfg), one[0], "single point");
}

TEST(SimBatch, MismatchedSpansThrow) {
  const sim::Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");
  std::vector<sim::SimConfig> cfgs(2);
  std::vector<sim::TimeBreakdown> out(3);
  EXPECT_THROW(sim.run_batch(sig, cfgs, out), std::invalid_argument);
}

TEST(SimBatch, InvalidPointsThrowLikeTheScalarPath) {
  const sim::Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");
  std::vector<sim::SimConfig> cfgs(1);
  cfgs[0].nthreads = sim.machine().num_cores + 1;
  std::vector<sim::TimeBreakdown> out(1);
  EXPECT_THROW(sim.run_batch(sig, cfgs, out), std::invalid_argument);
  // GCC cannot emit VLA: a hard error through either path.
  cfgs[0] = sim::SimConfig{};
  cfgs[0].compiler = core::CompilerId::Gcc;
  cfgs[0].vector_mode = core::VectorMode::VLA;
  EXPECT_THROW(sim.run_batch(sig, cfgs, out), std::invalid_argument);
  EXPECT_THROW((void)sim.run(sig, cfgs[0]), std::invalid_argument);
}

TEST(SimBatch, PointsBeforeAThrowingPointAreWritten) {
  const sim::Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");
  std::vector<sim::SimConfig> cfgs(3);
  cfgs[0].nthreads = 1;
  cfgs[1].nthreads = 4;
  cfgs[2].nthreads = 1000;  // out of range: the batch throws here
  std::vector<sim::TimeBreakdown> out(3);
  EXPECT_THROW(sim.run_batch(sig, cfgs, out), std::invalid_argument);
  expect_identical(sim.run(sig, cfgs[0]), out[0], "point 0");
  expect_identical(sim.run(sig, cfgs[1]), out[1], "point 1");
}

// ------------------------------------------------ note rendering --

TEST(NoteText, PinnedHistoricalStrings) {
  using compiler::NoteKind;
  using compiler::note_text;
  const auto gcc = core::CompilerId::Gcc;
  const auto clang = core::CompilerId::Clang;
  const auto vls = core::VectorMode::VLS;
  const auto vla = core::VectorMode::VLA;

  EXPECT_EQ(note_text(NoteKind::VectorisationDisabled, gcc,
                      core::VectorMode::Scalar, false, "SG2042"),
            "vectorisation disabled");
  EXPECT_EQ(note_text(NoteKind::NoVectorUnit, gcc, vls, false,
                      "VisionFive V2"),
            "no vector unit on VisionFive V2");
  EXPECT_EQ(note_text(NoteKind::CannotVectorise, gcc, vls, false, "SG2042"),
            "GCC cannot auto-vectorise this kernel");
  EXPECT_EQ(note_text(NoteKind::RuntimeScalar, gcc, vls, false, "SG2042"),
            "GCC vectorises the kernel but the scalar path is chosen at "
            "runtime");
  EXPECT_EQ(note_text(NoteKind::NoFp64Vector, gcc, vls, false, "SG2042"),
            "vector unit does not support FP64 arithmetic; executes at "
            "scalar rate");
  EXPECT_EQ(note_text(NoteKind::VectorPath, gcc, vls, false, "SG2042"),
            "GCC VLS vector path");
  EXPECT_EQ(note_text(NoteKind::VectorPath, clang, vls, true, "SG2042"),
            "Clang VLS vector path (RVV v1.0 rolled back to v0.7.1)");
  EXPECT_EQ(note_text(NoteKind::VectorPath, clang, vla, true, "SG2042"),
            "Clang VLA vector path (RVV v1.0 rolled back to v0.7.1)");
}

TEST(NoteText, BreakdownNoteStringMatchesPlan) {
  const sim::Simulator sim(machine::sg2042());
  const auto& sig = *kernels::find_signature("TRIAD");
  sim::SimConfig cfg;
  cfg.nthreads = 4;
  // FP32: the SG2042 vector unit has no FP64 arithmetic, which would
  // pick the NoFp64Vector note instead of the vector path.
  cfg.precision = core::Precision::FP32;
  cfg.compiler = core::CompilerId::Clang;
  cfg.vector_mode = core::VectorMode::VLS;
  const auto bd = sim.run(sig, cfg);
  EXPECT_EQ(bd.note_string(sim.machine().name),
            "Clang VLS vector path (RVV v1.0 rolled back to v0.7.1)");
}

// ------------------------------------- engine under concurrency --

TEST(SimBatch, ConcurrentRunGridCallersAgreeWithSerialReference) {
  const auto m = machine::sg2042();
  const auto sigs = kernels::all_signatures();
  // 64 signatures x 16 thread counts.
  std::vector<sim::SimConfig> cfgs;
  for (int t = 1; t <= 16; ++t) {
    sim::SimConfig cfg;
    cfg.nthreads = t;
    cfg.placement = machine::Placement::ClusterCyclic;
    cfgs.push_back(cfg);
  }

  engine::SweepEngine serial;
  const auto reference = serial.run_grid(m, sigs, cfgs);

  // Several threads hammer one engine with the same grid: they take
  // turns on the engine's mutex (the TSan lane rebuilds this test
  // instrumented), every caller must see the serial result
  // bit-for-bit, and every caller's points are priced on the one
  // Simulator the engine built.
  engine::SweepEngine shared;
  constexpr int kCallers = 8;
  std::vector<std::vector<sim::TimeBreakdown>> got(kCallers);
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back(
          [&, c] { got[c] = shared.run_grid(m, sigs, cfgs); });
    }
    for (auto& th : callers) th.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), reference.size()) << c;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      expect_identical(reference[i], got[c][i],
                       "caller " + std::to_string(c) + " point " +
                           std::to_string(i));
    }
  }
  const auto counters = shared.counters();
  EXPECT_EQ(counters.requests,
            static_cast<std::uint64_t>(kCallers) * reference.size());
  EXPECT_EQ(counters.simulations, counters.requests);
  EXPECT_EQ(counters.simulators_built, 1u);
}

// ---------------------------------------------- serve note golden --

/// Responses captured from sgp-serve before notes became structured
/// enums: every line must still come out byte-identical.
TEST(ServeNotes, GoldenResponsesAreByteIdentical) {
  const std::string golden_path =
      std::string(SGP_GOLDEN_DIR) + "/serve_notes.jsonl";
  std::ifstream golden_in(golden_path);
  ASSERT_TRUE(golden_in) << "missing " << golden_path;
  std::vector<std::string> golden;
  for (std::string line; std::getline(golden_in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  ASSERT_EQ(golden.size(), 6u);

  const std::vector<std::string> requests = {
      R"({"id":"g1","op":"sweep","machine":"sg2042","precision":"fp32","threads":[1,4],"compiler":"gcc","vector":"vls","format":"csv"})",
      R"({"id":"g2","op":"sweep","machine":"sg2042","kernels":["TRIAD","GEMM","DOT"],"precision":"fp64","threads":[2],"compiler":"gcc","vector":"vls","format":"csv"})",
      R"({"id":"g3","op":"sweep","machine":"sg2042","kernels":["TRIAD"],"precision":"fp32","threads":[1,8],"compiler":"clang","vector":"vls","format":"csv"})",
      R"({"id":"g4","op":"sweep","machine":"sg2042","kernels":["TRIAD"],"precision":"fp32","threads":[4],"compiler":"gcc","vector":"scalar","format":"csv"})",
      R"({"id":"g5","op":"sweep","machine":"visionfive-v1","kernels":["TRIAD","DOT"],"precision":"fp32","threads":[1,2],"compiler":"gcc","vector":"vls","format":"csv"})",
      R"({"id":"g6","op":"sweep","machine":"sg2042","kernels":["GEMM"],"precision":"fp32","threads":[4],"compiler":"clang","vector":"vla","format":"json"})",
  };

  serve::ServerOptions opt;
  opt.warn = false;
  serve::Server server(opt);
  std::mutex mu;
  std::vector<std::string> responses;
  for (const auto& req : requests) {
    server.submit_line(req, [&](std::string line) {
      std::lock_guard<std::mutex> lk(mu);
      responses.push_back(std::move(line));
    });
  }
  server.drain();
  ASSERT_EQ(responses.size(), golden.size());

  // Match by id: admission order is preserved with one worker, but the
  // pinned contract is per-request bytes, not queue order.
  auto id_of = [](const std::string& line) {
    const auto pos = line.find("\"id\":\"");
    EXPECT_NE(pos, std::string::npos) << line.substr(0, 80);
    const auto end = line.find('"', pos + 6);
    return line.substr(pos + 6, end - pos - 6);
  };
  for (const auto& want : golden) {
    const std::string id = id_of(want);
    bool found = false;
    for (const auto& got : responses) {
      if (id_of(got) != id) continue;
      found = true;
      EXPECT_EQ(got, want) << "response for " << id
                           << " diverged from the pinned golden";
    }
    EXPECT_TRUE(found) << "no response for id " << id;
  }
}

}  // namespace
}  // namespace sgp
