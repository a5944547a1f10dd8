// A long-lived worker pool implementing core::Executor. Used by the
// native backend to really run kernels multi-threaded. Chunking is
// static and contiguous (OpenMP "schedule(static)" semantics), so
// reduction partials indexed by chunk id are deterministic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/executor.hpp"

namespace sgp::threading {

/// Resolves a user-facing `--jobs` request to a worker count: values
/// >= 1 are clamped to [1, 4 * hardware_concurrency]; 0 (or negative)
/// means "one per hardware thread" (at least 1 when the runtime cannot
/// tell). Shared by the sweep engine and the bench binaries so every
/// surface resolves jobs the same way. A clamp is no longer silent: it
/// bumps the "pool.jobs_clamped" obs counter and records the resolved
/// count in the "pool.jobs_clamp_last" gauge.
int recommended_jobs(int requested) noexcept;

/// The pure resolution rule behind recommended_jobs, parameterized on
/// the hardware thread count so the hardware_concurrency() == 0
/// fallback is unit-testable.
int recommended_jobs_for(int requested, unsigned hardware) noexcept;

class ThreadPool final : public core::Executor {
 public:
  /// Spawns `nthreads` workers (>= 1). nthreads == 1 degenerates to
  /// serial execution on the calling thread.
  explicit ThreadPool(int nthreads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int max_chunks() const override { return nthreads_; }

  /// Exception-safe: if a chunk throws, the first exception is captured,
  /// chunks that have not started yet are skipped (cooperative cancel),
  /// the join still completes, and the exception is rethrown here on the
  /// calling thread. The pool remains usable afterwards.
  void parallel_for(std::size_t n, const ChunkFn& fn) override;

  /// Dynamically scheduled variant (OpenMP "schedule(dynamic, grain)"):
  /// workers pull `grain`-sized chunks from a shared counter. Better for
  /// irregular per-iteration costs; the chunk index passed to `fn` is
  /// the *worker* id (still < max_chunks()), so reduction arrays keyed
  /// by chunk id keep working — but chunk-to-range mapping is
  /// nondeterministic. Same exception contract as parallel_for; on a
  /// throw, other workers stop pulling new grains.
  void parallel_for_dynamic(std::size_t n, std::size_t grain,
                            const ChunkFn& fn);

  /// [begin, end) of chunk `c` when splitting `n` items over `chunks`.
  static std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                         int chunks, int c);

  /// Observability accessors (also mirrored into the process-wide
  /// obs registry under pool.*): dispatches are parallel_for /
  /// parallel_for_dynamic invocations on this pool, epochs count the
  /// work-queue generation handed to the workers, and busy time is the
  /// wall time each worker spent inside chunk bodies.
  std::uint64_t dispatches() const noexcept {
    return dispatches_.load(std::memory_order_relaxed);
  }
  std::uint64_t epochs() const;
  /// Per-worker busy seconds, indexed by worker id (size nthreads).
  std::vector<double> worker_busy_s() const;

 private:
  void worker(int id);
  /// Runs one chunk, capturing its exception as the job's first error
  /// and requesting cooperative cancellation of the remaining chunks.
  void run_chunk(const ChunkFn& fn, std::size_t n, int id);

  const int nthreads_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const ChunkFn* job_ = nullptr;
  std::size_t job_n_ = 0;
  std::uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;   ///< guarded by mu_
  std::atomic<bool> abort_{false};   ///< a chunk threw; skip unstarted ones

  // --- observability ---
  std::uint64_t dispatch_parent_ = 0;  ///< span to parent chunks under;
                                       ///< guarded by mu_
  std::atomic<std::uint64_t> dispatches_{0};
  /// Nanoseconds each worker spent inside chunk bodies.
  std::unique_ptr<std::atomic<std::uint64_t>[]> busy_ns_;
};

}  // namespace sgp::threading
