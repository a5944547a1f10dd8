// Tests for the thread pool executor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "threading/pool.hpp"

namespace sgp::threading {
namespace {

// ------------------------------------------------ chunk_range TEST_P --
using ChunkCase = std::tuple<std::size_t /*n*/, int /*chunks*/>;

class ChunkRange : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(ChunkRange, CoversDisjointlyAndBalanced) {
  const auto [n, chunks] = GetParam();
  std::size_t covered = 0;
  std::size_t prev_end = 0;
  std::size_t min_len = n + 1, max_len = 0;
  for (int c = 0; c < chunks; ++c) {
    const auto [b, e] = ThreadPool::chunk_range(n, chunks, c);
    EXPECT_EQ(b, prev_end);  // contiguous, in order
    EXPECT_LE(b, e);
    covered += e - b;
    prev_end = e;
    min_len = std::min(min_len, e - b);
    max_len = std::max(max_len, e - b);
  }
  EXPECT_EQ(covered, n);
  EXPECT_EQ(prev_end, n);
  // Static balanced chunking: sizes differ by at most one.
  EXPECT_LE(max_len - min_len, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChunkRange,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 7, 64, 1000,
                                                      999983),
                       ::testing::Values(1, 2, 3, 4, 7, 16, 64)));

// -------------------------------------------------------------- pool --
TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.max_chunks(), 1);
  int calls = 0;
  pool.parallel_for(5, [&](std::size_t b, std::size_t e, int c) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 5u);
    EXPECT_EQ(c, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, AllElementsVisitedExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkIndicesAreDistinct) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> chunk_hits(4);
  pool.parallel_for(4000, [&](std::size_t, std::size_t, int c) {
    chunk_hits[static_cast<std::size_t>(c)].fetch_add(1);
  });
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(chunk_hits[static_cast<std::size_t>(c)].load(), 1);
  }
}

TEST(ThreadPool, ReductionMatchesSerial) {
  ThreadPool pool(6);
  const std::size_t n = 250000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = 0.001 * static_cast<double>(i % 97);
  }
  std::vector<double> partial(static_cast<std::size_t>(pool.max_chunks()),
                              0.0);
  pool.parallel_for(n, [&](std::size_t b, std::size_t e, int c) {
    double s = 0.0;
    for (std::size_t i = b; i < e; ++i) s += data[i];
    partial[static_cast<std::size_t>(c)] = s;
  });
  const double parallel_sum =
      std::accumulate(partial.begin(), partial.end(), 0.0);
  const double serial_sum = std::accumulate(data.begin(), data.end(), 0.0);
  EXPECT_NEAR(parallel_sum, serial_sum, 1e-6 * serial_sum + 1e-12);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(3);
  std::vector<long> v(1000, 0);
  for (int rep = 0; rep < 200; ++rep) {
    pool.parallel_for(v.size(), [&](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i) ++v[i];
    });
  }
  for (long x : v) ASSERT_EQ(x, 200);
}

TEST(ThreadPool, EmptyRangeIsFine) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, RangeSmallerThanThreadCount) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t b, std::size_t e, int) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, OversubscriptionWorks) {
  // More threads than the host has cores: still correct.
  ThreadPool pool(16);
  std::vector<std::atomic<int>> hits(5000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}


TEST(ThreadPoolDynamic, CoversEveryElementExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(50000);
  pool.parallel_for_dynamic(hits.size(), 64,
                            [&](std::size_t b, std::size_t e, int) {
                              for (std::size_t i = b; i < e; ++i) {
                                hits[i].fetch_add(1);
                              }
                            });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPoolDynamic, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.parallel_for_dynamic(1000, 10,
                            [&](std::size_t, std::size_t, int w) {
                              if (w < 0 || w >= 3) ok = false;
                            });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPoolDynamic, ReductionMatchesSerial) {
  ThreadPool pool(5);
  const std::size_t n = 100000;
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = 0.001 * (i % 31);
  std::vector<double> partial(5, 0.0);
  pool.parallel_for_dynamic(n, 128,
                            [&](std::size_t b, std::size_t e, int w) {
                              double s = 0.0;
                              for (std::size_t i = b; i < e; ++i) {
                                s += data[i];
                              }
                              partial[static_cast<std::size_t>(w)] += s;
                            });
  const double got = std::accumulate(partial.begin(), partial.end(), 0.0);
  const double want = std::accumulate(data.begin(), data.end(), 0.0);
  EXPECT_NEAR(got, want, 1e-6 * want);
}

TEST(ThreadPoolDynamic, RejectsZeroGrain) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_dynamic(
                   10, 0, [](std::size_t, std::size_t, int) {}),
               std::invalid_argument);
}

TEST(ThreadPoolDynamic, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::size_t covered = 0;
  pool.parallel_for_dynamic(17, 4,
                            [&](std::size_t b, std::size_t e, int) {
                              covered += e - b;
                            });
  EXPECT_EQ(covered, 17u);
}

TEST(ThreadPoolDynamic, EmptyRange) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for_dynamic(0, 8,
                            [&](std::size_t, std::size_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

// ------------------------------------------------- exception handling --
// A throwing chunk used to escape a worker thread and terminate the
// process; it must now surface on the calling thread.
TEST(ThreadPoolExceptions, StaticThrowSurfacesOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t b, std::size_t, int) {
                          if (b > 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolExceptions, DynamicThrowSurfacesOnCaller) {
  ThreadPool pool(4);
  std::atomic<int> grains{0};
  // Set by the throwing grain just before it throws. Every other grain
  // waits for it and then 1 ms more before returning, so the rest cannot
  // drain all 1000 grains while the thrower is descheduled before its
  // throw or still unwinding to the pool's catch. The spin is bounded: a
  // throw that never comes fails the count below instead of hanging.
  std::atomic<bool> thrown{false};
  try {
    pool.parallel_for_dynamic(
        10000, 10, [&](std::size_t, std::size_t, int) {
          if (grains.fetch_add(1) == 3) {
            thrown.store(true);
            throw std::runtime_error("boom");
          }
          const auto give_up =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (!thrown.load() && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Cooperative cancel: workers stop pulling grains after the throw, so
  // far fewer than the 1000 grains should have run.
  EXPECT_LT(grains.load(), 1000);
}

TEST(ThreadPoolExceptions, DynamicStopsPullingGrainsAfterAThrow) {
  // Grain 3 throws once grains 0-2 are running on the three other
  // workers. Every other grain waits (bounded) until the thrower's
  // chunk has finished, which the pool records in worker_busy_s() only
  // after the abort flag is up; from then on no worker may pull a new
  // grain, so exactly the four grains run.
  ThreadPool pool(4);
  std::atomic<int> grains{0};
  std::atomic<int> thrower{-1};
  try {
    pool.parallel_for_dynamic(1000, 1, [&](std::size_t, std::size_t, int w) {
      if (grains.fetch_add(1) == 3) {
        thrower.store(w);
        throw std::runtime_error("boom");
      }
      auto thrower_done = [&] {
        const int t = thrower.load();
        return t >= 0 &&
               pool.worker_busy_s()[static_cast<std::size_t>(t)] > 0.0;
      };
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!thrower_done() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(grains.load(), 4);
}

TEST(ThreadPoolExceptions, CallerChunkThrowIsAlsoCaught) {
  ThreadPool pool(4);
  // Chunk 0 runs on the calling thread; its exception must take the
  // same capture path and not corrupt the pool state.
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t b, std::size_t, int) {
                          if (b == 0) throw std::invalid_argument("c0");
                        }),
      std::invalid_argument);
}

TEST(ThreadPoolExceptions, FirstExceptionWinsWhenAllChunksThrow) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(1000, [](std::size_t, std::size_t, int) {
      throw std::runtime_error("each chunk throws");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "each chunk throws");
  }
}

TEST(ThreadPoolExceptions, PoolIsReusableAfterAThrow) {
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.parallel_for(100,
                                   [](std::size_t, std::size_t, int) {
                                     throw std::logic_error("x");
                                   }),
                 std::logic_error);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolExceptions, SingleThreadPropagatesDirectly) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t, std::size_t, int) {
                                   throw std::runtime_error("serial");
                                 }),
               std::runtime_error);
  EXPECT_THROW(pool.parallel_for_dynamic(
                   10, 2,
                   [](std::size_t, std::size_t, int) {
                     throw std::runtime_error("serial dynamic");
                   }),
               std::runtime_error);
}

// recommended_jobs_for is the pure core of recommended_jobs: the
// hardware count is a parameter, so the hardware_concurrency()==0
// fallback (a real possibility on exotic RISC-V boards) is testable.
TEST(RecommendedJobs, HardwareZeroFallsBackToOne) {
  EXPECT_EQ(recommended_jobs_for(0, 0), 1);
  EXPECT_EQ(recommended_jobs_for(-3, 0), 1);
  // The 4x oversubscription cap applies to the fallback too.
  EXPECT_EQ(recommended_jobs_for(16, 0), 4);
}

TEST(RecommendedJobs, ClampsToFourTimesHardware) {
  EXPECT_EQ(recommended_jobs_for(0, 8), 8);    // default: one per thread
  EXPECT_EQ(recommended_jobs_for(7, 8), 7);    // under the cap: as asked
  EXPECT_EQ(recommended_jobs_for(32, 8), 32);  // exactly at the cap
  EXPECT_EQ(recommended_jobs_for(64, 8), 32);  // over: clamped, not silent
  EXPECT_EQ(recommended_jobs_for(1000000, 2), 8);
}

TEST(RecommendedJobs, WrapperAgreesWithPureCore) {
  const int got = recommended_jobs(3);
  EXPECT_EQ(got, recommended_jobs_for(3, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace sgp::threading

