// Bitwise-determinism tests for every parallelized hot path: the parallel
// execution layer's contract is that thread count changes wall-clock time
// and nothing else. Each test runs a workload serially and at 1, 2, and 8
// threads and asserts exact equality — distances to the bit, labels,
// counts, and cascade counters.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "harness/pairwise.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/gesture.h"
#include "warp/mining/nn_classifier.h"

namespace warp {
namespace {

constexpr std::array<size_t, 3> kThreadCounts = {1, 2, 8};

gen::GestureOptions SmallOptions() {
  gen::GestureOptions options;
  options.length = 64;
  options.num_classes = 3;
  options.seed = 99;
  return options;
}

SeriesMeasure CdtwMeasure(size_t band) {
  return [band](std::span<const double> a, std::span<const double> b) {
    return CdtwDistance(a, b, band);
  };
}

std::vector<std::vector<double>> RawSeries(const Dataset& dataset) {
  std::vector<std::vector<double>> series;
  for (size_t i = 0; i < dataset.size(); ++i) {
    series.push_back(dataset[i].values());
  }
  return series;
}

TEST(ParallelDeterminismTest, CondensedPairIndexRoundTrips) {
  for (const size_t n : {2u, 3u, 7u, 50u}) {
    size_t index = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(CondensedRowStart(i, n) + (j - i - 1), index);
        const auto [pi, pj] = CondensedPairFromIndex(index, n);
        EXPECT_EQ(pi, i) << "n=" << n << " index=" << index;
        EXPECT_EQ(pj, j) << "n=" << n << " index=" << index;
        ++index;
      }
    }
  }
}

TEST(ParallelDeterminismTest, PairwiseMatrixBitwiseEqualAtAnyThreadCount) {
  const Dataset data = gen::MakeGestureDataset(7, SmallOptions());
  const std::vector<std::vector<double>> series = RawSeries(data);
  const SeriesMeasure measure = CdtwMeasure(6);
  const DistanceMatrix serial = ComputePairwiseMatrix(series, measure);
  for (const size_t threads : kThreadCounts) {
    const DistanceMatrix parallel =
        ComputePairwiseMatrix(series, measure, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      for (size_t j = i + 1; j < serial.size(); ++j) {
        // Exact (bitwise) equality, not NEAR: the parallel fill computes
        // the identical expression into the identical slot.
        EXPECT_EQ(parallel.at(i, j), serial.at(i, j))
            << "threads=" << threads << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(ParallelDeterminismTest, Evaluate1NnCountsEqualAtAnyThreadCount) {
  const Dataset data = gen::MakeGestureDataset(8, SmallOptions());
  const auto [train, test] = data.StratifiedSplit(0.5);
  const SeriesMeasure measure = CdtwMeasure(6);
  const ClassificationStats serial = Evaluate1Nn(train, test, measure);
  for (const size_t threads : kThreadCounts) {
    const ClassificationStats parallel =
        Evaluate1Nn(train, test, measure, threads);
    EXPECT_EQ(parallel.total, serial.total) << "threads=" << threads;
    EXPECT_EQ(parallel.correct, serial.correct) << "threads=" << threads;
    EXPECT_EQ(parallel.accuracy, serial.accuracy) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, AcceleratedCascadeStatsSumIdentically) {
  const Dataset data = gen::MakeGestureDataset(10, SmallOptions());
  const auto [train, test] = data.StratifiedSplit(0.5);
  const AcceleratedNnClassifier classifier(train, 5);
  const ClassificationStats serial = classifier.Evaluate(test);
  // The cascade must actually fire for this test to mean anything.
  ASSERT_GT(serial.candidates, 0u);
  ASSERT_GT(serial.pruned_by_kim + serial.pruned_by_keogh +
                serial.abandoned_dtw,
            0u);
  for (const size_t threads : kThreadCounts) {
    const ClassificationStats parallel = classifier.Evaluate(test, threads);
    EXPECT_EQ(parallel.total, serial.total) << "threads=" << threads;
    EXPECT_EQ(parallel.correct, serial.correct) << "threads=" << threads;
    EXPECT_EQ(parallel.candidates, serial.candidates)
        << "threads=" << threads;
    EXPECT_EQ(parallel.pruned_by_kim, serial.pruned_by_kim)
        << "threads=" << threads;
    EXPECT_EQ(parallel.pruned_by_keogh, serial.pruned_by_keogh)
        << "threads=" << threads;
    EXPECT_EQ(parallel.abandoned_dtw, serial.abandoned_dtw)
        << "threads=" << threads;
    EXPECT_EQ(parallel.full_dtw, serial.full_dtw) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, TimeAllPairsParallelChecksumBitwiseEqual) {
  const Dataset data = gen::MakeGestureDataset(8, SmallOptions());
  const size_t sample = data.size();
  // Serial reference via the templated single-core harness.
  const bench::PairwiseTiming serial = bench::TimeAllPairs(
      data, sample, [](std::span<const double> a, std::span<const double> b) {
        return CdtwDistance(a, b, 6);
      });
  const auto factory = []() {
    auto buffer = std::make_shared<DtwBuffer>();
    return [buffer](std::span<const double> a, std::span<const double> b) {
      return CdtwDistance(a, b, 6, CostKind::kSquared, buffer.get());
    };
  };
  for (const size_t threads : kThreadCounts) {
    const bench::PairwiseTiming parallel =
        bench::TimeAllPairsParallel(data, sample, threads, factory);
    EXPECT_EQ(parallel.pairs_timed, serial.pairs_timed)
        << "threads=" << threads;
    EXPECT_EQ(parallel.checksum, serial.checksum) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, TimeAllPairsParallelFastDtwChecksum) {
  const Dataset data = gen::MakeGestureDataset(6, SmallOptions());
  const auto factory = []() {
    return [](std::span<const double> a, std::span<const double> b) {
      return FastDtwDistance(a, b, 3);
    };
  };
  const bench::PairwiseTiming one =
      bench::TimeAllPairsParallel(data, data.size(), 1, factory);
  for (const size_t threads : kThreadCounts) {
    const bench::PairwiseTiming many =
        bench::TimeAllPairsParallel(data, data.size(), threads, factory);
    EXPECT_EQ(many.checksum, one.checksum) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace warp
