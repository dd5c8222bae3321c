// Tests for the histogram/gauge registry: bucket geometry, percentile
// ranks, thread-merge determinism and gauge deltas.

#include "warp/obs/histogram.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace warp {
namespace obs {
namespace {

TEST(HistogramTest, NamesAreUniqueAndNonEmpty) {
  for (size_t i = 0; i < kNumHistograms; ++i) {
    const char* name = HistogramName(static_cast<Histogram>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_STRNE(name, HistogramName(static_cast<Histogram>(j)));
    }
  }
  for (size_t i = 0; i < kNumGauges; ++i) {
    const char* name = GaugeName(static_cast<Gauge>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u);
    for (size_t j = 0; j < i; ++j) {
      EXPECT_STRNE(name, GaugeName(static_cast<Gauge>(j)));
    }
  }
}

TEST(HistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(HistogramBucketIndex(0), 0u);
  EXPECT_EQ(HistogramBucketIndex(1), 1u);
  EXPECT_EQ(HistogramBucketIndex(2), 2u);
  EXPECT_EQ(HistogramBucketIndex(3), 2u);
  EXPECT_EQ(HistogramBucketIndex(4), 3u);
  EXPECT_EQ(HistogramBucketIndex(7), 3u);
  EXPECT_EQ(HistogramBucketIndex(8), 4u);
  EXPECT_EQ(HistogramBucketIndex(255), 8u);
  EXPECT_EQ(HistogramBucketIndex(256), 9u);
  EXPECT_EQ(HistogramBucketIndex(~uint64_t{0}), 64u);
}

TEST(HistogramTest, BucketBoundIsInclusiveUpperEdge) {
  EXPECT_EQ(HistogramBucketBound(0), 0u);
  EXPECT_EQ(HistogramBucketBound(1), 1u);
  EXPECT_EQ(HistogramBucketBound(2), 3u);
  EXPECT_EQ(HistogramBucketBound(3), 7u);
  EXPECT_EQ(HistogramBucketBound(63), (uint64_t{1} << 63) - 1);
  EXPECT_EQ(HistogramBucketBound(64), ~uint64_t{0});
  // Every value lands in a bucket whose bound contains it and whose
  // predecessor's bound does not.
  for (const uint64_t value :
       {0ull, 1ull, 5ull, 100ull, 4096ull, 1ull << 30}) {
    const size_t bucket = HistogramBucketIndex(value);
    EXPECT_LE(value, HistogramBucketBound(bucket));
    if (bucket > 0) {
      EXPECT_GT(value, HistogramBucketBound(bucket - 1));
    }
  }
}

TEST(HistogramTest, PercentileIsBucketUpperBoundAtCeilRank) {
  HistogramData data;
  // 99 samples of value 1 (bucket 1) and one of value 1000 (bucket 10).
  data.count = 100;
  data.sum = 99 + 1000;
  data.buckets[1] = 99;
  data.buckets[10] = 1;
  EXPECT_EQ(data.Percentile(0.50), 1u);
  EXPECT_EQ(data.Percentile(0.99), 1u);    // rank 99 is still bucket 1
  EXPECT_EQ(data.Percentile(1.0), 1023u);  // rank 100 is the outlier
  EXPECT_EQ(data.Percentile(0.0), 1u);     // clamps to rank 1
  EXPECT_DOUBLE_EQ(data.Mean(), 10.99);

  const HistogramData empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(empty.Percentile(0.5), 0u);
  EXPECT_EQ(empty.Mean(), 0.0);
}

TEST(HistogramTest, SnapshotDifferenceSaturatesAtZero) {
  HistogramSnapshot a;
  HistogramSnapshot b;
  a.series[0].count = 10;
  a.series[0].sum = 100;
  a.series[0].buckets[3] = 10;
  b.series[0].count = 3;
  b.series[0].sum = 30;
  b.series[0].buckets[3] = 3;
  b.series[1].count = 5;  // Larger than a's 0: must clamp, not wrap.
  const HistogramSnapshot d = a - b;
  EXPECT_EQ(d.series[0].count, 7u);
  EXPECT_EQ(d.series[0].sum, 70u);
  EXPECT_EQ(d.series[0].buckets[3], 7u);
  EXPECT_EQ(d.series[1].count, 0u);
}

TEST(HistogramTest, RecordAccumulatesCountSumAndBuckets) {
  const Histogram h = Histogram::kServeCellsPerQuery;
  const HistogramSnapshot before = SnapshotHistograms();
  RecordValue(h, 0);
  RecordValue(h, 5);
  RecordValue(h, 5);
  RecordValue(h, 300);
  const HistogramData delta = HistogramsSince(before).Get(h);
  EXPECT_EQ(delta.count, 4u);
  EXPECT_EQ(delta.sum, 310u);
  EXPECT_EQ(delta.buckets[0], 1u);                        // the zero
  EXPECT_EQ(delta.buckets[HistogramBucketIndex(5)], 2u);  // both fives
  EXPECT_EQ(delta.buckets[HistogramBucketIndex(300)], 1u);
}

TEST(HistogramTest, RecordMicrosClampsNegativeToZero) {
  const Histogram h = Histogram::kServeStageMerge;
  const HistogramSnapshot before = SnapshotHistograms();
  RecordMicros(h, -3.5);
  RecordMicros(h, 2.9);  // Rounds down to 2.
  const HistogramData delta = HistogramsSince(before).Get(h);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 2u);
  EXPECT_EQ(delta.buckets[0], 1u);
  EXPECT_EQ(delta.buckets[2], 1u);
}

// The same multiset of values split across 1, 2, and 8 threads must
// merge to a bitwise-identical histogram: slabs are summed with unsigned
// addition, which is order-independent.
HistogramData RecordAcrossThreads(size_t num_threads) {
  const Histogram h = Histogram::kServeBatchOccupancy;
  const HistogramSnapshot before = SnapshotHistograms();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([t, num_threads, h] {
      for (size_t i = t; i < 1000; i += num_threads) {
        RecordValue(h, (i * 37) % 257);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return HistogramsSince(before).Get(h);
}

TEST(HistogramTest, MergeIsIdenticalAtOneTwoAndEightThreads) {
  const HistogramData serial = RecordAcrossThreads(1);
  EXPECT_EQ(serial.count, 1000u);
  for (const size_t threads : {2u, 8u}) {
    const HistogramData pooled = RecordAcrossThreads(threads);
    EXPECT_EQ(pooled.count, serial.count);
    EXPECT_EQ(pooled.sum, serial.sum);
    EXPECT_EQ(pooled.buckets, serial.buckets);
  }
}

TEST(HistogramTest, GaugeDeltasAreCommutative) {
  const Gauge g = Gauge::kServeQueueDepth;
  const int64_t start = GaugeValue(g);
  GaugeAdd(g, 5);
  GaugeAdd(g, -2);
  EXPECT_EQ(GaugeValue(g), start + 3);
  EXPECT_EQ(SnapshotGauges().Get(g), start + 3);
  GaugeAdd(g, -3);  // Settle back so later tests see the original level.
  EXPECT_EQ(GaugeValue(g), start);
}

}  // namespace
}  // namespace obs
}  // namespace warp
