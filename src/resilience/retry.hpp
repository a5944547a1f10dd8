// Bounded retry with exponential backoff for transient I/O faults (the
// persistent store retries a failed segment flush under this policy).
#pragma once

#include <cstdint>
#include <stdexcept>

namespace sgp::resilience {

/// Governs how many times a failing operation is re-attempted and how
/// long the caller pauses between attempts. max_attempts == 1 disables
/// retry.
struct RetryPolicy {
  int max_attempts = 1;             ///< total attempts (first + retries)
  double backoff_initial_ms = 10.0; ///< pause before the first retry
  double backoff_multiplier = 2.0;  ///< growth per subsequent retry
  double backoff_max_ms = 2000.0;   ///< cap on any single pause
  /// Deterministic jitter fraction in [0, 1): each pause is scaled by a
  /// factor in [1 - jitter, 1 + jitter) drawn from `jitter_seed`, so a
  /// fleet of retriers hitting the same transient I/O fault spreads out
  /// instead of retrying in lockstep — while the same (policy, seed)
  /// still reproduces the exact same pause sequence run after run.
  double jitter = 0.0;
  std::uint64_t jitter_seed = 0x5eedb0ff5eedb0ffull;

  /// Stateless mixer (splitmix64): the jitter draw for retry `n` is a
  /// pure function of (jitter_seed, n).
  static constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Pause before retry number `retry` (1-based: 1 follows the first
  /// failed attempt). Exponential with a hard cap, jittered when
  /// jitter > 0; 0 when out of range. Always <= backoff_max_ms.
  double backoff_ms(int retry) const {
    if (retry < 1 || max_attempts <= 1) return 0.0;
    double d = backoff_initial_ms;
    for (int i = 1; i < retry; ++i) d *= backoff_multiplier;
    if (d > backoff_max_ms) d = backoff_max_ms;
    if (jitter > 0.0) {
      const double u =
          static_cast<double>(
              mix64(jitter_seed ^ static_cast<std::uint64_t>(retry)) >> 11) *
          0x1.0p-53;  // uniform in [0, 1)
      d *= (1.0 - jitter) + 2.0 * jitter * u;  // factor in [1-j, 1+j)
      if (d > backoff_max_ms) d = backoff_max_ms;
    }
    return d;
  }

  /// Throws std::invalid_argument on nonsensical parameters.
  void validate() const {
    if (max_attempts < 1) {
      throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
    }
    if (backoff_initial_ms < 0.0 || backoff_max_ms < 0.0 ||
        backoff_multiplier < 1.0) {
      throw std::invalid_argument("RetryPolicy: bad backoff parameters");
    }
    if (jitter < 0.0 || jitter >= 1.0) {
      throw std::invalid_argument("RetryPolicy: jitter must be in [0, 1)");
    }
  }
};

}  // namespace sgp::resilience
