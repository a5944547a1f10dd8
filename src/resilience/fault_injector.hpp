// Deterministic fault injection for resilience testing. A FaultPlan
// names kernels and the faults they should experience (exception,
// checksum corruption, delay); the FaultInjector arms one fault per
// execution attempt, with per-kernel trigger budgets so transient
// (first-N-attempts-only) faults are expressible, and a per-kernel
// seeded RNG so probabilistic faults are reproducible across runs.
#pragma once

#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace sgp::resilience {

enum class FaultKind {
  None,             ///< no fault armed
  Throw,            ///< throw InjectedFault from inside a kernel chunk
  CorruptChecksum,  ///< replace the kernel's checksum with NaN
  Delay,            ///< sleep inside a kernel chunk (straggler)
  // Filesystem fault points. These are armed at I/O *sites* instead of
  // kernels: the persistence layer asks for "persist.write",
  // "persist.rename" and "persist.read" around each operation, so a
  // plan like "persist.write:torn:1" tears exactly the first segment
  // flush. The entropy word in the ArmedFault picks the torn length /
  // flipped bit deterministically from the per-site seeded RNG.
  TornWrite,   ///< write reports success but only a prefix reaches disk
  NoSpace,     ///< write fails as if the device returned ENOSPC
  BitFlipRead, ///< one bit of the read buffer flips (marginal medium)
  RenameFail,  ///< the atomic temp-to-final rename fails
};

constexpr std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::None:            return "none";
    case FaultKind::Throw:           return "throw";
    case FaultKind::CorruptChecksum: return "nan";
    case FaultKind::Delay:           return "delay";
    case FaultKind::TornWrite:       return "torn";
    case FaultKind::NoSpace:         return "enospc";
    case FaultKind::BitFlipRead:     return "bitflip";
    case FaultKind::RenameFail:      return "renamefail";
  }
  return "?";
}

/// One injection rule, scoped to a kernel name ("*" matches any kernel).
struct FaultSpec {
  std::string kernel;
  FaultKind kind = FaultKind::None;
  double delay_ms = 0.0;    ///< sleep length for FaultKind::Delay
  int max_triggers = -1;    ///< attempts that fault; -1 = every attempt
  double probability = 1.0; ///< chance each attempt arms (seeded RNG)
};

/// An ordered set of FaultSpecs, parseable from the CLI/text form:
///
///   plan   := spec (',' spec)*
///   spec   := site ':' kind
///   site   := kernel name | I/O site ("persist.write", "persist.read",
///             "persist.rename") | '*'
///   kind   := 'throw'      ['@' prob] [':' triggers]
///           | 'nan'        ['@' prob] [':' triggers]
///           | 'delay'      ['@' prob] ':' millis [':' triggers]
///           | 'torn'       ['@' prob] [':' triggers]
///           | 'enospc'     ['@' prob] [':' triggers]
///           | 'bitflip'    ['@' prob] [':' triggers]
///           | 'renamefail' ['@' prob] [':' triggers]
///
/// e.g. "MUL:throw,DOT:nan,TRIAD:delay:250" or a transient
/// first-attempt-only fault "MUL:throw:1", or a seeded intermittent
/// fault "COPY:throw@0.5", or a torn first segment flush
/// "persist.write:torn:1".
class FaultPlan {
 public:
  /// Parses the text form; throws std::invalid_argument on bad syntax.
  static FaultPlan parse(std::string_view text);

  /// Appends a rule; throws std::invalid_argument on malformed specs.
  void add(FaultSpec spec);

  const std::vector<FaultSpec>& specs() const noexcept { return specs_; }
  bool empty() const noexcept { return specs_.empty(); }

 private:
  std::vector<FaultSpec> specs_;
};

/// What the injector decided for one attempt.
struct ArmedFault {
  FaultKind kind = FaultKind::None;
  double delay_ms = 0.0;
  /// Deterministic randomness for faults that need a position or a
  /// length (BitFlipRead, TornWrite); drawn from the spec's seeded RNG
  /// when the fault arms, 0 otherwise.
  std::uint64_t entropy = 0;
};

/// Stateful, thread-safe dispenser of faults. Each arm() call consumes
/// one trigger of the first matching spec with budget remaining, so a
/// spec with max_triggers == 1 faults the first attempt and lets every
/// retry succeed — the shape of a transient platform fault.
class FaultInjector {
 public:
  /// `seed` accepts the full 64-bit range (CLI seeds are parsed as
  /// uint64). Seeds below 2^32 produce the exact same fault sequences
  /// as the historical unsigned-seed constructor.
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 4242u);

  /// Arms (and consumes) the fault for one attempt of `kernel`.
  ArmedFault arm(std::string_view kernel);

  /// Total faults armed so far for `kernel` (diagnostics/tests).
  int armed_count(std::string_view kernel) const;

 private:
  struct State {
    FaultSpec spec;
    int remaining;   ///< triggers left; -1 = unlimited
    int armed = 0;
    std::mt19937 rng;
  };
  std::vector<State> states_;
  mutable std::mutex mu_;
};

}  // namespace sgp::resilience
