#include "resilience/guard.hpp"

#include <thread>

#include "resilience/retry.hpp"

namespace sgp::resilience {

void RetryPolicy::validate() const {
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

GuardedExecutor::GuardedExecutor(
    core::Executor& inner,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    ArmedFault fault, std::string kernel)
    : inner_(inner),
      deadline_(deadline),
      fault_(fault),
      kernel_(std::move(kernel)) {}

void GuardedExecutor::check_deadline() const {
  if (deadline_ && std::chrono::steady_clock::now() >= *deadline_) {
    throw DeadlineExceeded("kernel '" + kernel_ +
                           "' exceeded its soft deadline");
  }
}

void GuardedExecutor::parallel_for(std::size_t n, const ChunkFn& fn) {
  check_deadline();
  const ChunkFn guarded = [&](std::size_t b, std::size_t e, int c) {
    // The armed fault fires in exactly one chunk of the attempt; the
    // deadline check runs after any injected sleep so a delayed chunk
    // that blows the deadline is classified TimedOut deterministically.
    if (fault_.kind != FaultKind::None && !fired_.exchange(true)) {
      if (fault_.kind == FaultKind::Delay) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(fault_.delay_ms));
      } else if (fault_.kind == FaultKind::Throw) {
        throw InjectedFault("injected fault in kernel '" + kernel_ +
                            "' (chunk " + std::to_string(c) + ")");
      }
    }
    check_deadline();
    fn(b, e, c);
  };
  inner_.parallel_for(n, guarded);
}

}  // namespace sgp::resilience
