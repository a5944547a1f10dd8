// Content fingerprints. The sweep engine keys its per-machine
// Simulators by machine_fingerprint, so two equal descriptors (a
// registry entry and its INI round trip, say) share one Simulator;
// sgp-serve fingerprints request content with Fnv1a to coalesce equal
// requests, and the bench manifest records each machine's fingerprint.
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

#include "machine/descriptor.hpp"

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

}  // namespace sgp::engine
