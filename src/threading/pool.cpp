#include "threading/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sgp::threading {

namespace {

/// Process-wide pool metrics, aggregated over every ThreadPool
/// instance (the engine's, native runs', transient test pools).
struct PoolMetrics {
  obs::Counter& dispatches =
      obs::registry().counter("pool.dispatches");
  obs::Counter& dynamic_dispatches =
      obs::registry().counter("pool.dynamic_dispatches");
  obs::Counter& epochs = obs::registry().counter("pool.epochs");
  obs::Counter& chunks = obs::registry().counter("pool.chunks");
  obs::Counter& busy_ns = obs::registry().counter("pool.busy_ns");
  obs::Histogram& chunk_ns =
      obs::registry().histogram("pool.chunk_ns");

  static PoolMetrics& get() {
    static PoolMetrics* m = new PoolMetrics();
    return *m;
  }
};

}  // namespace

int recommended_jobs_for(int requested, unsigned hardware) noexcept {
  const int fallback = hardware == 0 ? 1 : static_cast<int>(hardware);
  if (requested <= 0) return fallback;
  return std::min(requested, 4 * fallback);
}

int recommended_jobs(int requested) noexcept {
  const int jobs =
      recommended_jobs_for(requested, std::thread::hardware_concurrency());
  if (requested > 0 && jobs < requested) {
    obs::registry().counter("pool.jobs_clamped").add();
    obs::registry().gauge("pool.jobs_clamp_last").set(jobs);
  }
  return jobs;
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_range(std::size_t n,
                                                            int chunks,
                                                            int c) {
  const auto k = static_cast<std::size_t>(chunks);
  const auto i = static_cast<std::size_t>(c);
  const std::size_t base = n / k;
  const std::size_t rem = n % k;
  const std::size_t begin = i * base + std::min(i, rem);
  const std::size_t len = base + (i < rem ? 1 : 0);
  return {begin, begin + len};
}

ThreadPool::ThreadPool(int nthreads) : nthreads_(nthreads) {
  if (nthreads < 1) {
    throw std::invalid_argument("ThreadPool: nthreads must be >= 1");
  }
  busy_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) busy_ns_[i] = 0;
  // Worker 0 is the calling thread; spawn the rest.
  workers_.reserve(static_cast<std::size_t>(nthreads - 1));
  for (int i = 1; i < nthreads; ++i) {
    workers_.emplace_back([this, i] { worker(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

std::uint64_t ThreadPool::epochs() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

std::vector<double> ThreadPool::worker_busy_s() const {
  std::vector<double> out(static_cast<std::size_t>(nthreads_));
  for (int i = 0; i < nthreads_; ++i) {
    out[static_cast<std::size_t>(i)] =
        busy_ns_[i].load(std::memory_order_relaxed) * 1e-9;
  }
  return out;
}

void ThreadPool::run_chunk(const ChunkFn& fn, std::size_t n, int id) {
  const auto [b, e] = chunk_range(n, nthreads_, id);
  if (b >= e || abort_.load(std::memory_order_acquire)) return;
  std::uint64_t parent = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    parent = dispatch_parent_;
  }
  // Worker chunks hang under the dispatching scope's span, so one
  // batch renders as one tree across threads in the trace viewer.
  const obs::AdoptParent adopt(parent);
  const obs::Span span("pool.chunk");
  const auto t0 = std::chrono::steady_clock::now();
  try {
    fn(b, e, id);
  } catch (...) {
    abort_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lk(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  busy_ns_[id].fetch_add(ns, std::memory_order_relaxed);
  PoolMetrics& pm = PoolMetrics::get();
  pm.chunks.add();
  pm.busy_ns.add(ns);
  pm.chunk_ns.observe(ns);
}

void ThreadPool::worker(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    const ChunkFn* job = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
      n = job_n_;
    }
    run_chunk(*job, n, id);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_dynamic(std::size_t n, std::size_t grain,
                                      const ChunkFn& fn) {
  if (grain == 0) {
    throw std::invalid_argument("parallel_for_dynamic: grain must be > 0");
  }
  PoolMetrics::get().dynamic_dispatches.add();
  const obs::Span span("ThreadPool::parallel_for_dynamic");
  if (nthreads_ == 1) {
    PoolMetrics::get().dispatches.add();
    dispatches_.fetch_add(1, std::memory_order_relaxed);
    if (n > 0) fn(0, n, 0);
    return;
  }
  // Wrap the user functor in a work-stealing loop; each invocation of
  // the wrapper (one per worker) drains the shared counter. A throwing
  // grain raises abort_ before its exception leaves the wrapper, so the
  // other workers stop pulling grains while it unwinds.
  std::atomic<std::size_t> next{0};
  const ChunkFn wrapper = [&](std::size_t, std::size_t, int worker) {
    while (!abort_.load(std::memory_order_acquire)) {
      const std::size_t begin =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(begin + grain, n);
      try {
        fn(begin, end, worker);
      } catch (...) {
        abort_.store(true, std::memory_order_release);
        throw;
      }
    }
  };
  // Dispatch the wrapper once per worker via the static machinery; the
  // per-worker static range is ignored (range [0, nthreads) guarantees
  // every worker gets a non-empty slot and runs the wrapper once).
  parallel_for(static_cast<std::size_t>(nthreads_), wrapper);
}

void ThreadPool::parallel_for(std::size_t n, const ChunkFn& fn) {
  PoolMetrics::get().dispatches.add();
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  const obs::Span span("ThreadPool::parallel_for");
  if (nthreads_ == 1) {
    if (n > 0) fn(0, n, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    job_n_ = n;
    remaining_ = nthreads_ - 1;
    first_error_ = nullptr;
    abort_.store(false, std::memory_order_relaxed);
    ++epoch_;
    dispatch_parent_ = obs::current_span();
  }
  PoolMetrics::get().epochs.add();
  cv_work_.notify_all();
  // The calling thread is chunk 0.
  run_chunk(fn, n, 0);
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return remaining_ == 0; });
    job_ = nullptr;
    err = std::exchange(first_error_, nullptr);
  }
  abort_.store(false, std::memory_order_relaxed);
  if (err) std::rethrow_exception(err);
}

}  // namespace sgp::threading
