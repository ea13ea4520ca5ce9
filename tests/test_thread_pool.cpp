// Tests for the deterministic work pool: full index coverage, disjoint
// writes, nesting, exception propagation, resize semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace nora::util {
namespace {

TEST(ThreadPool, SequentialWidthRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));  // no races at width 1
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::int64_t n : {1, 2, 3, 7, 100, 1000}) {
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    pool.parallel_for(n, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << "i=" << i;
    }
  }
}

TEST(ThreadPool, GrainChunksStillCoverEverything) {
  ThreadPool pool(3);
  const std::int64_t n = 997;  // prime: never divides evenly into chunks
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  pool.parallel_for(
      n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
      /*grain=*/64);
  std::int64_t total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, n);
}

TEST(ThreadPool, DisjointWritesProduceExactResult) {
  ThreadPool pool(4);
  const std::int64_t n = 5000;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  pool.parallel_for(n, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = i * i;
  });
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(4);
  const std::int64_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(outer * inner));
  pool.parallel_for(outer, [&](std::int64_t i) {
    pool.parallel_for(inner, [&](std::int64_t j) {
      hits[static_cast<std::size_t>(i * inner + j)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::int64_t i) {
                          if (i == 37) throw std::runtime_error("item 37");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, ResizeAndEnsure) {
  // Widths above hardware_concurrency() clamp (a 1-core CI host installs
  // width 1 everywhere), so assert against the clamp, not the request.
  ThreadPool pool(1);
  pool.ensure(3);
  EXPECT_EQ(pool.threads(), ThreadPool::clamp_width(3));
  pool.ensure(2);  // never shrinks
  EXPECT_EQ(pool.threads(), ThreadPool::clamp_width(3));
  pool.resize(2);
  EXPECT_EQ(pool.threads(), ThreadPool::clamp_width(2));
  pool.resize(0);  // clamps to 1 instead of throwing
  EXPECT_EQ(pool.threads(), 1);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100, [&](std::int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, WidthClampsDeterministically) {
  // Non-positive widths clamp to 1 (sequential), both at construction
  // and on resize — a config of "0 threads" must never throw mid-serve.
  ThreadPool zero(0);
  EXPECT_EQ(zero.threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
  // Absurd widths clamp to hardware_concurrency() instead of spawning
  // thousands of OS threads. When hc is unknown (0) the request stands,
  // so only assert the clamp when hc is reported.
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc > 0) {
    ThreadPool huge(1 << 20);
    EXPECT_EQ(huge.threads(), static_cast<int>(hc));
    EXPECT_EQ(ThreadPool::clamp_width(1 << 20), static_cast<int>(hc));
  }
  EXPECT_EQ(ThreadPool::clamp_width(0), 1);
  EXPECT_EQ(ThreadPool::clamp_width(-7), 1);
  EXPECT_EQ(ThreadPool::clamp_width(1), 1);
}

TEST(ThreadPool, CrossPoolNestingDoesNotDeadlock) {
  // A pool draining work inside a job running on another pool: the
  // outer pool's worker blocks in the inner parallel_for but assists the
  // inner job, so no thread ever waits on a queue it alone could serve.
  ThreadPool outer(2);
  ThreadPool chip_a(2);
  ThreadPool chip_b(2);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(2 * 64));
  outer.parallel_for(2, [&](std::int64_t c) {
    ThreadPool& chip = (c == 0) ? chip_a : chip_b;
    chip.parallel_for(64, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(c * 64 + i)].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Nested construction inside a running job must also complete.
  outer.parallel_for(2, [&](std::int64_t c) {
    ThreadPool inner(2);
    std::atomic<std::int64_t> sum{0};
    inner.parallel_for(16, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 120) << "chip " << c;
  });
}

TEST(ThreadPool, GlobalSingletonStartsSequential) {
  EXPECT_GE(ThreadPool::global().threads(), 1);
}

TEST(ThreadPool, EmptyLoopIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace nora::util
