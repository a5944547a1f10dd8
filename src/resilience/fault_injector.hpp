// Deterministic filesystem fault injection for the persistence layer.
// A FaultPlan names I/O sites and the faults they should experience;
// the FaultInjector arms one fault per operation, with per-site trigger
// budgets so transient (first-N-operations-only) faults are
// expressible, and a per-site seeded RNG so probabilistic faults are
// reproducible across runs.
#pragma once

#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace sgp::resilience {

// The persistence layer asks for "persist.write", "persist.rename" and
// "persist.read" around each operation, so a plan like
// "persist.write:torn:1" tears exactly the first segment flush. The
// entropy word in the ArmedFault picks the torn length / flipped bit
// deterministically from the per-site seeded RNG.
enum class FaultKind {
  None,        ///< no fault armed
  TornWrite,   ///< write reports success but only a prefix reaches disk
  NoSpace,     ///< write fails as if the device returned ENOSPC
  BitFlipRead, ///< one bit of the read buffer flips (marginal medium)
  RenameFail,  ///< the atomic temp-to-final rename fails
};

/// One injection rule, scoped to an I/O site ("*" matches any site).
struct FaultSpec {
  std::string site;
  FaultKind kind = FaultKind::None;
  int max_triggers = -1;    ///< operations that fault; -1 = every one
  double probability = 1.0; ///< chance each operation arms (seeded RNG)
};

/// An ordered set of FaultSpecs, parseable from the CLI/text form:
///
///   plan   := spec (',' spec)*
///   spec   := site ':' kind ['@' prob] [':' triggers]
///   site   := name | '*'   (the persistence layer arms "persist.write",
///                             "persist.read" and "persist.rename")
///   kind   := 'torn' | 'enospc' | 'bitflip' | 'renamefail'
///
/// e.g. a torn first segment flush "persist.write:torn:1", or a seeded
/// intermittent read fault "persist.read:bitflip@0.5".
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

/// What the injector decided for one operation.
struct ArmedFault {
  FaultKind kind = FaultKind::None;
  /// Deterministic randomness for faults that need a position or a
  /// length (BitFlipRead, TornWrite); drawn from the spec's seeded RNG
  /// when the fault arms, 0 otherwise.
  std::uint64_t entropy = 0;
};

/// Stateful, thread-safe dispenser of faults. Each arm() call consumes
/// one trigger of the first matching spec with budget remaining, so a
/// spec with max_triggers == 1 faults the first operation and lets
/// every retry succeed — the shape of a transient platform fault.
class FaultInjector {
 public:
  /// `seed` accepts the full 64-bit range. Seeds below 2^32 produce
  /// the exact same fault sequences as the historical unsigned-seed
  /// constructor.
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 4242u);

  /// Arms (and consumes) the fault for one operation at `site`.
  ArmedFault arm(std::string_view site);

  /// Total faults armed so far for `site` (diagnostics/tests).
  int armed_count(std::string_view site) const;

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
