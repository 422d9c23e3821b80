#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "cpu/thread_pool.h"
#include "util/check.h"

namespace lddp::cpu {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 145);  // 10 + ... + 19
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool touched = false;
  pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
  pool.parallel_for(7, 3, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ChunkedCoversRangeWithoutOverlap) {
  ThreadPool pool(5);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_chunked(0, kN, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LT(lo, hi);
    for (std::size_t i = lo; i < hi; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyRegions) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(0, 100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 20000);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToMaster) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000,
                        [](std::size_t i) {
                          if (i == 777) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool remains usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(0, 10, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPoolTest, ZeroThreadsRejected) {
  EXPECT_THROW(ThreadPool(std::size_t{0}), CheckError);
}

TEST(ThreadPoolTest, MoreThreadsThanWork) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ShortItemRangeRunsInlineOnCaller) {
  // A per-item range of at most kMinGrain items is one task on the
  // calling thread — the tile fronts of Platform::cpu_tiled_front and
  // Device::execute_tiles never fan out.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t n : {std::size_t{4}, std::size_t{512},
                              StealingExecutor::kMinGrain}) {
    std::vector<std::thread::id> ran(n);
    pool.parallel_for(0, n, [&](std::size_t i) {
      ran[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(ran[i], caller) << n;
  }
}

TEST(ThreadPoolTest, WavefrontDependenciesSeePreviousFront) {
  // Each front reads the previous front's results — every region must be
  // fully joined before the next one starts.
  ThreadPool pool(4);
  constexpr std::size_t kWidth = 10000;
  std::vector<long> prev(kWidth, 1), cur(kWidth, 0);
  for (int f = 0; f < 20; ++f) {
    pool.parallel_for(0, kWidth, [&](std::size_t i) {
      const long left = i > 0 ? prev[i - 1] : 0;
      cur[i] = prev[i] + left;
    });
    std::swap(prev, cur);
  }
  std::vector<long> sprev(kWidth, 1), scur(kWidth, 0);
  for (int f = 0; f < 20; ++f) {
    for (std::size_t i = 0; i < kWidth; ++i)
      scur[i] = sprev[i] + (i > 0 ? sprev[i - 1] : 0);
    std::swap(sprev, scur);
  }
  EXPECT_EQ(prev, sprev);
}

TEST(ThreadPoolTest, ExceptionInsideFrontPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  constexpr std::size_t kWidth = 10000;
  EXPECT_THROW(
      {
        for (std::size_t f = 0; f < 10; ++f) {
          pool.parallel_for(0, kWidth, [&](std::size_t i) {
            if (f == 3 && i == 7777) throw std::runtime_error("boom");
          });
        }
      },
      std::runtime_error);
  // Later fronts on the same pool still cover their range exactly.
  std::atomic<long> m{0};
  for (int f = 0; f < 5; ++f) {
    pool.parallel_for(0, kWidth, [&](std::size_t) {
      m.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(m.load(), 5 * static_cast<long>(kWidth));
}

}  // namespace
}  // namespace lddp::cpu
