// Unit tests for the deterministic parallel execution primitives.

#include "warp/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

namespace warp {
namespace {

TEST(DefaultThreadCountTest, HonorsWarpThreadsEnv) {
  unsetenv("WARP_THREADS");
  const size_t fallback = DefaultThreadCount();  // The hardware count.
  EXPECT_GE(fallback, 1u);
  setenv("WARP_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  // Anything but a whole integer from 1 to INT_MAX falls back.
  for (const char* value :
       {"not-a-number", "-2", "4x", "2.5", "99999999999999999999"}) {
    setenv("WARP_THREADS", value, 1);
    EXPECT_EQ(DefaultThreadCount(), fallback) << value;
  }
  unsetenv("WARP_THREADS");
}

TEST(ResolveThreadCountTest, ZeroMeansAuto) {
  setenv("WARP_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreadCount(0), 5u);
  EXPECT_EQ(ResolveThreadCount(2), 2u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  unsetenv("WARP_THREADS");
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 5, 5, 1, [&](size_t, size_t, size_t) { ++calls; });
  ParallelFor(&pool, 7, 3, 1, [&](size_t, size_t, size_t) { ++calls; });
  ParallelFor(nullptr, 0, 0, 4, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneInlineChunk) {
  ThreadPool pool(4);
  std::vector<std::array<size_t, 3>> chunks;
  std::mutex mutex;
  ParallelFor(&pool, 2, 7, 100, [&](size_t b, size_t e, size_t worker) {
    std::lock_guard<std::mutex> lock(mutex);
    chunks.push_back({b, e, worker});
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0][0], 2u);
  EXPECT_EQ(chunks[0][1], 7u);
  EXPECT_EQ(chunks[0][2], 0u);  // Single chunks run inline as worker 0.
}

TEST(ParallelForTest, ChunksCoverRangeExactlyOnce) {
  for (const size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const size_t begin = 3;
    const size_t end = 103;
    const size_t grain = 7;
    std::vector<std::atomic<int>> visits(end);
    for (auto& v : visits) v.store(0);
    ParallelFor(&pool, begin, end, grain,
                [&](size_t b, size_t e, size_t worker) {
                  EXPECT_LT(worker, pool.size());
                  // Chunk boundaries must be the fixed grain partition.
                  EXPECT_EQ((b - begin) % grain, 0u);
                  EXPECT_LE(e - b, grain);
                  for (size_t i = b; i < e; ++i) visits[i].fetch_add(1);
                });
    for (size_t i = 0; i < end; ++i) {
      EXPECT_EQ(visits[i].load(), i >= begin ? 1 : 0) << "i=" << i;
    }
  }
}

TEST(ParallelForTest, ZeroGrainIsTreatedAsOne) {
  std::vector<int> hits(10, 0);
  ParallelFor(nullptr, 0, 10, 0,
              [&](size_t b, size_t e, size_t) {
                EXPECT_EQ(e, b + 1);
                for (size_t i = b; i < e; ++i) ++hits[i];
              });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ParallelForTest, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 64, 1,
                  [&](size_t b, size_t, size_t) {
                    if (b == 13) throw std::runtime_error("chunk 13 failed");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, PropagatesExceptionOnSerialPath) {
  EXPECT_THROW(ParallelFor(nullptr, 0, 8, 2,
                           [&](size_t b, size_t, size_t) {
                             if (b == 4) throw std::logic_error("boom");
                           }),
               std::logic_error);
}

TEST(ChunkCountTest, MatchesCeilDivision) {
  EXPECT_EQ(ChunkCount(0, 0, 4), 0u);
  EXPECT_EQ(ChunkCount(0, 1, 4), 1u);
  EXPECT_EQ(ChunkCount(0, 4, 4), 1u);
  EXPECT_EQ(ChunkCount(0, 5, 4), 2u);
  EXPECT_EQ(ChunkCount(10, 30, 0), 20u);  // grain 0 behaves as 1.
}

TEST(PerThreadTest, SlotsAreIsolatedAcrossWorkers) {
  ThreadPool pool(4);
  PerThread<std::vector<size_t>> scratch(&pool);
  ASSERT_EQ(scratch.size(), 4u);
  // Every chunk appends its begin index to its worker's slot; afterwards
  // the slots must partition the chunk set (no cross-worker writes, which
  // under contention would lose or duplicate entries).
  ParallelFor(&pool, 0, 400, 1, [&](size_t b, size_t, size_t worker) {
    scratch[worker].push_back(b);
  });
  std::set<size_t> seen;
  size_t total = 0;
  for (size_t w = 0; w < scratch.size(); ++w) {
    total += scratch[w].size();
    seen.insert(scratch[w].begin(), scratch[w].end());
  }
  EXPECT_EQ(total, 400u);
  EXPECT_EQ(seen.size(), 400u);
}

TEST(PerThreadTest, NullPoolGetsOneSlot) {
  PerThread<int> scratch(nullptr);
  EXPECT_EQ(scratch.size(), 1u);
  scratch[0] = 42;
  EXPECT_EQ(scratch[0], 42);
}

}  // namespace
}  // namespace warp
