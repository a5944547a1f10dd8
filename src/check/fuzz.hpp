// Property-based fuzzing of the model invariants: random-but-valid
// machine descriptors (the generator that started life in
// tests/random_machines_test.cpp, now a library so the check CLI and
// the tests share it) replayed through the InvariantChecker.
#pragma once

#include <string>
#include <vector>

#include "cachesim/trace.hpp"
#include "check/invariants.hpp"
#include "machine/descriptor.hpp"

namespace sgp::check {

struct FuzzOptions {
  FuzzOptions() {
    // The scalar floor is a calibration property of the paper machines:
    // a random descriptor may pair a strong scalar core with a weak
    // vector unit, making the vector path legitimately slower.
    check.scalar_floor = false;
  }

  CheckOptions check;
  /// Representative kernels: bandwidth-bound, compute-bound, reduction.
  std::vector<std::string> kernels{"TRIAD", "GEMM", "DOT"};
};

/// Deterministic random-but-valid machine descriptor for `seed`.
machine::MachineDescriptor random_machine(unsigned seed);

/// Replays the single-point and thread-monotonicity invariants over
/// `num_seeds` random machines starting at `first_seed`, across both
/// precisions, all placements, and serial/half/full thread counts.
/// `jobs` shards the seeds over a ThreadPool (0 = one per hardware
/// thread); per-seed reports are merged in seed order, so the report is
/// byte-identical to a serial run regardless of the worker count.
CheckReport fuzz_invariants(unsigned first_seed, unsigned num_seeds,
                            const FuzzOptions& opt = {}, int jobs = 1);

/// The cachesim oracle's reference replay: materializes the sweep with
/// generate_sweep, then feeds one Hierarchy::access per record per rep,
/// simulating every rep (no early exit, no line-run coalescing). The
/// steady delta is measured directly on the last rep. Throws
/// std::invalid_argument on reps < 1 or an empty `cfgs`, like
/// cachesim::replay_stream.
cachesim::ReplayResult replay_vector(
    const std::vector<cachesim::CacheConfig>& cfgs,
    const cachesim::SweepSpec& spec, int reps);

/// Replays every access pattern through both cachesim replay paths —
/// the vector-materialized reference and the streaming engine with
/// steady-state early exit — on machine `m` (plus FIFO and
/// write-around config perturbations of its hierarchy) and demands
/// bit-identical per-level CacheStats, DRAM bytes, access counts and
/// steady miss rates; where the hierarchy splits into set shards, the
/// two shards of the stream replay must also sum to it, measured rep
/// included (invariant "cachesim-replay-agreement", one point per
/// case).
CheckReport cachesim_agreement(const machine::MachineDescriptor& m);

/// cachesim_agreement over `num_seeds` random machines starting at
/// `first_seed`, sharded over `jobs` workers with deterministic
/// seed-order merging like fuzz_invariants.
CheckReport fuzz_cachesim(unsigned first_seed, unsigned num_seeds,
                          int jobs = 1);

/// Fuzzes the sgp-serve request parser (serve/protocol.hpp): per seed,
/// builds a random-but-valid request line, checks it parses cleanly,
/// then applies a seeded mutation (truncation, byte garbage, bad
/// UTF-8, unknown fields, duplicate keys, oversized payloads) and
/// demands the parser never crash, classify deterministically (two
/// parses of the same bytes agree exactly), and on failure produce a
/// structured error whose rendered response line is itself valid JSON
/// (invariant "serve-request-robustness").
CheckReport fuzz_requests(unsigned first_seed, unsigned num_seeds,
                          int jobs = 1);

/// Fuzzes the machine INI serializer/parser and the machine registry
/// (invariant "machine-ini-roundtrip"): per seed, a random machine must
/// round-trip byte-identically through to_ini/from_ini — including a
/// heterogeneous-cluster variant, which exercises the explicit
/// cluster.N membership form — corrupted texts (duplicate section
/// header, duplicate key, empty value) must be rejected with a
/// line-localised error, and the descriptor must register and resolve
/// through a MachineRegistry.
CheckReport fuzz_ini_roundtrip(unsigned first_seed, unsigned num_seeds,
                               int jobs = 1);

/// Fuzzes the batched evaluation paths against the scalar oracle
/// (invariant "sim-batch-identity"): per seed, a random machine runs
/// ragged random batches — empty, single-point and larger mixed-kernel
/// grids — through (a) per-point Simulator::run, (b) one
/// Simulator::run_batch per kernel, and (c) SweepEngine::run_batch
/// twice (memo-miss pass, then the memo-hit replay), and demands every
/// TimeBreakdown field match bit-for-bit across all paths.
CheckReport fuzz_batch_identity(unsigned first_seed, unsigned num_seeds,
                                int jobs = 1);

}  // namespace sgp::check
