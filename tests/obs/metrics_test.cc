// Tests for the work-counter registry: hand-counted cell totals,
// thread-merge determinism, and the no-behavior-change guarantee.

#include "warp/common/metrics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "warp/common/parallel.h"
#include "warp/core/dtw.h"
#include "warp/core/envelope.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/random_walk.h"

namespace warp {
namespace obs {
namespace {

TEST(MetricsTest, CounterNamesAreUniqueAndNonEmpty) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const char* name = CounterName(static_cast<Counter>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_STRNE(name, CounterName(static_cast<Counter>(j)));
    }
  }
}

TEST(MetricsTest, SnapshotDifferenceSaturatesAtZero) {
  MetricsSnapshot a;
  MetricsSnapshot b;
  a.values[0] = 10;
  b.values[0] = 3;
  b.values[1] = 5;  // Larger than a's 0: must clamp, not wrap.
  const MetricsSnapshot d = a - b;
  EXPECT_EQ(d.values[0], 7u);
  EXPECT_EQ(d.values[1], 0u);
}

TEST(MetricsTest, FullDtwCountsExactlyNTimesMCells) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {0.0, 1.0, 2.0};
  const MetricsSnapshot before = SnapshotCounters();
  DtwDistance(x, y);
  const MetricsSnapshot delta = CountersSince(before);
  // Full DTW evaluates every cell of the 4x3 matrix.
  EXPECT_EQ(delta[Counter::kDtwCells], 12u);
}

TEST(MetricsTest, BandedDtwCountsExactlyTheBandCells) {
  Rng rng(7);
  const std::vector<double> x = gen::RandomWalk(8, rng);
  const std::vector<double> y = gen::RandomWalk(8, rng);
  const MetricsSnapshot before = SnapshotCounters();
  CdtwDistance(x, y, 1);
  const MetricsSnapshot delta = CountersSince(before);
  // Band 1 on an 8x8 grid: rows 0 and 7 have 2 in-band cells, the six
  // middle rows have 3 -> 2 + 6*3 + 2 = 22.
  EXPECT_EQ(delta[Counter::kDtwCells], 22u);
}

TEST(MetricsTest, FastDtwCounterMatchesResultCellsVisited) {
  Rng rng(11);
  const std::vector<double> x = gen::RandomWalk(200, rng);
  const std::vector<double> y = gen::RandomWalk(200, rng);
  const MetricsSnapshot before = SnapshotCounters();
  const DtwResult result = FastDtw(x, y, 4);
  const MetricsSnapshot delta = CountersSince(before);
  EXPECT_EQ(delta[Counter::kFastDtwCells], result.cells_visited);
  EXPECT_GT(delta[Counter::kFastDtwLevels], 0u);
  EXPECT_GT(delta[Counter::kFastDtwBaseCases], 0u);
}

TEST(MetricsTest, EnvelopeCountsBuildsAndPoints) {
  Rng rng(13);
  const std::vector<double> x = gen::RandomWalk(64, rng);
  const MetricsSnapshot before = SnapshotCounters();
  ComputeEnvelope(x, 5);
  ComputeEnvelope(x, 9);
  const MetricsSnapshot delta = CountersSince(before);
  EXPECT_EQ(delta[Counter::kEnvelopeBuilds], 2u);
  EXPECT_EQ(delta[Counter::kEnvelopePoints], 128u);
}

// The same total work split across 1, 2, and 8 threads must merge to
// bitwise-identical counter totals: the slabs are summed with unsigned
// addition, which is order-independent.
uint64_t CountCellsAcrossThreads(size_t num_threads, size_t jobs) {
  const MetricsSnapshot before = SnapshotCounters();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([t, num_threads, jobs] {
      Rng rng(17);
      const std::vector<double> x = gen::RandomWalk(32, rng);
      const std::vector<double> y = gen::RandomWalk(32, rng);
      for (size_t j = t; j < jobs; j += num_threads) {
        DtwDistance(x, y);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return CountersSince(before)[Counter::kDtwCells];
}

TEST(MetricsTest, MergeIsIdenticalAtOneTwoAndEightThreads) {
  constexpr size_t kJobs = 40;
  const uint64_t serial = CountCellsAcrossThreads(1, kJobs);
  EXPECT_EQ(serial, kJobs * 32u * 32u);
  EXPECT_EQ(CountCellsAcrossThreads(2, kJobs), serial);
  EXPECT_EQ(CountCellsAcrossThreads(8, kJobs), serial);
}

// Counting must never change results: the distance computed with
// counters accumulating is bitwise-equal across serial and pooled runs.
TEST(MetricsTest, CountingDoesNotPerturbResults) {
  Rng rng(23);
  const std::vector<double> x = gen::RandomWalk(128, rng);
  const std::vector<double> y = gen::RandomWalk(128, rng);
  const double serial = CdtwDistance(x, y, 12);
  for (const size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<double> results(16);
    ParallelFor(&pool, 0, results.size(), 1,
                [&](size_t begin, size_t end, size_t) {
                  for (size_t i = begin; i < end; ++i) {
                    results[i] = CdtwDistance(x, y, 12);
                  }
                });
    for (const double r : results) {
      EXPECT_EQ(r, serial);
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace warp
