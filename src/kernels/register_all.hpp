// Registers all 64 kernels of the suite, in the canonical group order
// (Algorithm, Apps, Basic, Lcals, Polybench, Stream; alphabetical inside
// a group).
#pragma once

#include <string_view>
#include <vector>

#include "core/registry.hpp"
#include "core/signature.hpp"

namespace sgp::kernels {

/// Populates `reg` with the full suite. Throws on duplicates (i.e. when
/// called twice on the same registry).
void register_all(core::Registry& reg);

/// Convenience: a freshly populated registry.
core::Registry make_registry();

/// Signatures of every kernel, in registry order (no data allocated):
/// one process-wide table, built on first use. Per-kernel results in
/// the pipelines are vectors aligned with it.
const std::vector<core::KernelSignature>& all_signatures();

/// The table entry named exactly `name` (case-sensitive), or nullptr.
const core::KernelSignature* find_signature(std::string_view name);

}  // namespace sgp::kernels
