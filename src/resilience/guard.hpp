// Execution guard: an Executor decorator that applies injected faults
// and a soft deadline inside kernel chunks — so faults surface on real
// worker threads and the deadline is checked against the clock at every
// chunk boundary without kernels knowing about either.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/executor.hpp"
#include "resilience/fault_injector.hpp"

namespace sgp::resilience {

/// Raised by the guard when an armed FaultKind::Throw fires.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Raised at a chunk boundary once the soft deadline has passed.
struct DeadlineExceeded : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Executor decorator for one kernel attempt. Before running each chunk
/// it (a) applies the armed fault exactly once per attempt — sleeping
/// for Delay, throwing InjectedFault for Throw — and (b) throws
/// DeadlineExceeded once the clock has passed the optional deadline.
/// The deadline is *soft*: a running chunk is never killed, it is only
/// observed at the next boundary. Checks run on the worker threads of
/// the wrapped executor, so a throwing chunk also exercises the pool's
/// exception propagation path.
class GuardedExecutor final : public core::Executor {
 public:
  GuardedExecutor(core::Executor& inner,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline,
                  ArmedFault fault, std::string kernel);

  int max_chunks() const override { return inner_.max_chunks(); }
  void parallel_for(std::size_t n, const ChunkFn& fn) override;

 private:
  void check_deadline() const;

  core::Executor& inner_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  ArmedFault fault_;
  std::string kernel_;
  std::atomic<bool> fired_{false};
};

}  // namespace sgp::resilience
