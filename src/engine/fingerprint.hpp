// Content-addressed fingerprints for the sweep engine's memoization
// cache. A cache key is the triple of 64-bit fingerprints of the
// machine descriptor, the kernel signature and the SimConfig; two
// evaluation points with equal fingerprints are guaranteed (up to hash
// collision, ~2^-64 per pair) to be the same pure-function input to
// Simulator::run and therefore to produce bit-identical TimeBreakdowns.
//
// Strings fold byte by byte, every fixed-width field as one 64-bit word
// (Fnv1a below); each step is a bijection of the state, so changing any
// one field changes the fingerprint.
//
// The machine fingerprint is a bit-exact encoding of every descriptor
// field. The INI text (machine::to_ini) is a function of those fields,
// so it adds nothing, and its 6-significant-digit formatting would
// flatten differences the raw bits keep (e.g. two L1 sizes inside the
// same KiB).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "core/signature.hpp"
#include "machine/descriptor.hpp"
#include "sim/config.hpp"

namespace sgp::engine {

/// Incremental 64-bit hasher: FNV-1a over bytes(), one word step per
/// fixed-width field.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) noexcept;
  void str(std::string_view s) noexcept { bytes(s.data(), s.size()); }
  /// Folds one word: xor, multiply by an odd constant, rotate by 32.
  /// The rotation carries high-bit differences (a double's exponent)
  /// down into the bits the next multiply spreads.
  void u64(std::uint64_t v) noexcept {
    h_ = std::rotl((h_ ^ v) * 0x9e3779b97f4a7c15ull, 32);
  }
  void i32(std::int32_t v) noexcept { u64(static_cast<std::uint32_t>(v)); }
  void f64(double v) noexcept;  ///< hashes the bit pattern
  void flag(bool v) noexcept { u64(v ? 1u : 0u); }

  std::uint64_t digest() const noexcept { return h_; }

 private:
  // The published FNV-1a-64 offset basis, 14695981039346656037, with
  // its last digit dropped.
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Fingerprint of everything Simulator::run reads from the descriptor.
std::uint64_t machine_fingerprint(const machine::MachineDescriptor& m);

/// Fingerprint of every field of a kernel signature (not just its name,
/// so mutated copies of a registry signature key separately).
std::uint64_t signature_fingerprint(const core::KernelSignature& sig);

/// signature_fingerprint(sig), read from a table computed once per
/// process when `sig` is an entry of kernels::all_signatures(). Any
/// other signature (a serve copy, a fuzzer mutation) is hashed: only
/// that immutable table is matched by address, since a mutated copy
/// may reuse a freed one.
std::uint64_t table_signature_fingerprint(const core::KernelSignature& sig);

/// Fingerprint of a SimConfig.
std::uint64_t config_fingerprint(const sim::SimConfig& cfg);

}  // namespace sgp::engine
