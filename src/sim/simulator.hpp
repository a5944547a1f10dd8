// Facade: estimates the wall time of a full kernel run (all reps) on a
// machine descriptor under a SimConfig.
//
// Two entry points share one pricing loop, so their outputs are
// bit-identical:
//  * run()        — one (signature, config) point;
//  * run_batch()  — a grid slice of configs for one signature.
// Each call resolves the signature's checks and byte/pattern constants
// once and memoizes the (precision, compiler, vector mode) codegen
// plans and core costs on first use, then prices every point in one
// pass with no heap allocation. Placement-occupancy statistics for
// every (placement, nthreads) pair are precomputed at construction into
// two flat tables, so neither path walks the topology per point.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/model.hpp"
#include "core/signature.hpp"
#include "machine/descriptor.hpp"
#include "machine/placement.hpp"
#include "sim/cache_model.hpp"
#include "sim/config.hpp"
#include "sim/core_model.hpp"
#include "sim/memory_model.hpp"
#include "sim/sync_model.hpp"

namespace sgp::sim {

/// Where the time went, over the whole run (reps included). Plain data
/// with no heap state: the code-path note is an enum plus the fields
/// its text interpolates; serialization paths call note_string().
struct TimeBreakdown {
  double compute_s = 0.0;
  double memory_s = 0.0;
  double sync_s = 0.0;
  double atomic_s = 0.0;
  double total_s = 0.0;
  MemLevel serving = MemLevel::DRAM;
  bool vector_path = false;
  compiler::NoteKind note = compiler::NoteKind::VectorisationDisabled;
  core::CompilerId note_compiler = core::CompilerId::Gcc;
  core::VectorMode note_mode = core::VectorMode::Scalar;
  bool note_rollback = false;

  /// Renders the note byte-identically to the historical string field.
  /// `machine_name` is interpolated only for NoteKind::NoVectorUnit.
  std::string note_string(std::string_view machine_name) const {
    return compiler::note_text(note, note_compiler, note_mode,
                               note_rollback, machine_name);
  }
};

class Simulator {
 public:
  /// Takes ownership of the descriptor; validates it, then precomputes
  /// the placement-occupancy tables for every (placement, nthreads).
  explicit Simulator(machine::MachineDescriptor m);
  /// The models and the placement rows point into this object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const machine::MachineDescriptor& machine() const noexcept { return m_; }

  /// Full breakdown for one kernel under one configuration.
  TimeBreakdown run(const core::KernelSignature& sig,
                    const SimConfig& cfg) const;

  /// Prices a grid slice: out[i] = run(sig, cfgs[i]), bit for bit.
  /// Throws std::invalid_argument on a malformed signature, mismatched
  /// span lengths, or any invalid config; the exception contract is
  /// per-point (points before the offending one are already written).
  void run_batch(const core::KernelSignature& sig,
                 std::span<const SimConfig> cfgs,
                 std::span<TimeBreakdown> out) const;

  /// Shorthand for run(...).total_s.
  double seconds(const core::KernelSignature& sig,
                 const SimConfig& cfg) const {
    return run(sig, cfg).total_s;
  }

  /// Occupancy of the first `nthreads` cores under `p`, equal field by
  /// field to machine::analyze(m, machine::assign_cores(m, p, nthreads))
  /// (the reference implementation) but read from the flat table filled
  /// at construction; nthreads must be in [1, num_cores].
  const machine::PlacementView& placement_stats(machine::Placement p,
                                                int nthreads) const {
    return placement_rows_[static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(m_.num_cores) +
                           static_cast<std::size_t>(nthreads - 1)];
  }

 private:
  /// The shared pricing loop behind run() and run_batch().
  void price(const core::KernelSignature& sig,
             std::span<const SimConfig> cfgs,
             std::span<TimeBreakdown> out) const;

  machine::MachineDescriptor m_;
  CacheModel cache_;
  MemoryModel memory_;
  CoreModel core_;
  SyncModel sync_;
  /// The placement tables, flat: row p * num_cores + nthreads - 1 views
  /// the occupancy of (p, nthreads), and row n extends row n - 1 by one
  /// core. Each row's per-region then per-cluster thread counts sit
  /// back to back in placement_counts_.
  std::vector<machine::PlacementView> placement_rows_;
  std::vector<int> placement_counts_;
};

}  // namespace sgp::sim
