// Unit tests for the k-NN generalization: vote semantics, reduction to
// 1-NN, and exactness of the accelerated engine.

#include <gtest/gtest.h>

#include "warp/core/dtw.h"
#include "warp/gen/gesture.h"
#include "warp/mining/nn_classifier.h"

namespace warp {
namespace {

SeriesMeasure CdtwMeasure(size_t band) {
  return [band](std::span<const double> a, std::span<const double> b) {
    return CdtwDistance(a, b, band);
  };
}

TEST(KnnTest, KEqualsOneMatches1Nn) {
  gen::GestureOptions options;
  options.length = 64;
  options.num_classes = 3;
  options.seed = 271;
  const Dataset pool = gen::MakeGestureDataset(6, options);
  const auto [train, test] = pool.StratifiedSplit(0.5);
  for (const auto& query : test.series()) {
    const Prediction knn = ClassifyKnn(train, query.view(), 1,
                                       CdtwMeasure(6));
    const Prediction nn = Classify1Nn(train, query.view(), CdtwMeasure(6));
    EXPECT_EQ(knn.label, nn.label);
    EXPECT_EQ(knn.nn_index, nn.nn_index);
    EXPECT_DOUBLE_EQ(knn.distance, nn.distance);
  }
}

TEST(KnnTest, MajorityOutvotesSingleNearOutlier) {
  // Query sits nearest to one class-1 outlier but is surrounded by
  // class-0 exemplars: k=3 must flip the prediction to class 0.
  Dataset train;
  train.Add(TimeSeries({1.0, 1.0, 1.0}, 1));  // The near outlier.
  train.Add(TimeSeries({2.0, 2.0, 2.0}, 0));
  train.Add(TimeSeries({2.1, 2.1, 2.1}, 0));
  train.Add(TimeSeries({9.0, 9.0, 9.0}, 1));
  const std::vector<double> query = {1.4, 1.4, 1.4};
  EXPECT_EQ(ClassifyKnn(train, query, 1, CdtwMeasure(1)).label, 1);
  EXPECT_EQ(ClassifyKnn(train, query, 3, CdtwMeasure(1)).label, 0);
}

TEST(KnnTest, TieGoesToNearestOfTiedClasses) {
  Dataset train;
  train.Add(TimeSeries({1.0}, 7));   // Nearest.
  train.Add(TimeSeries({3.0}, 4));
  const std::vector<double> query = {1.5};
  // k=2: one vote each -> class of the nearest neighbor wins.
  EXPECT_EQ(ClassifyKnn(train, query, 2, CdtwMeasure(0)).label, 7);
}

TEST(KnnTest, AcceleratedMatchesBruteForceAcrossK) {
  gen::GestureOptions options;
  options.length = 80;
  options.num_classes = 4;
  options.warp_fraction = 0.1;
  options.noise_stddev = 0.4;
  options.seed = 272;
  const Dataset pool = gen::MakeGestureDataset(8, options);
  const auto [train, test] = pool.StratifiedSplit(0.5);
  const size_t band = 8;
  const AcceleratedNnClassifier accelerated(train, band);
  for (size_t k : {1u, 3u, 5u, 9u}) {
    for (const auto& query : test.series()) {
      const Prediction fast = accelerated.ClassifyKnn(query.view(), k);
      const Prediction brute =
          ClassifyKnn(train, query.view(), k, CdtwMeasure(band));
      ASSERT_EQ(fast.label, brute.label) << "k=" << k;
      ASSERT_NEAR(fast.distance, brute.distance, 1e-9) << "k=" << k;
    }
  }
}

TEST(KnnTest, AcceleratedKnnStillPrunes) {
  gen::GestureOptions options;
  options.length = 96;
  options.seed = 273;
  const Dataset pool = gen::MakeGestureDataset(10, options);
  const auto [train, test] = pool.StratifiedSplit(0.6);
  const AcceleratedNnClassifier accelerated(train, 5);
  ClassificationStats stats;
  for (const auto& query : test.series()) {
    accelerated.ClassifyKnn(query.view(), 3, &stats);
  }
  EXPECT_GT(stats.pruned_by_kim + stats.pruned_by_keogh +
                stats.abandoned_dtw,
            0u);
}

}  // namespace
}  // namespace warp
