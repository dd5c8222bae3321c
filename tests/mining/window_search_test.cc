// Unit tests for the best-window LOOCV search.

#include "warp/mining/window_search.h"

#include <limits>

#include <gtest/gtest.h>

#include "warp/core/dtw.h"
#include "warp/gen/gesture.h"

namespace warp {
namespace {

// Leave-one-out 1-NN over plain CdtwDistance; the first strict minimum
// wins, as in LoocvAccuracy.
double BruteForceLoocv(const Dataset& dataset, size_t band) {
  size_t correct = 0;
  for (size_t q = 0; q < dataset.size(); ++q) {
    double best = std::numeric_limits<double>::infinity();
    int best_label = TimeSeries::kUnlabeled;
    for (size_t i = 0; i < dataset.size(); ++i) {
      if (i == q) continue;
      const double d = CdtwDistance(dataset[q].view(), dataset[i].view(), band);
      if (d < best) {
        best = d;
        best_label = dataset[i].label();
      }
    }
    if (best_label == dataset[q].label()) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

TEST(WindowSearchTest, LoocvAccuracyPerfectOnTrivialData) {
  Dataset dataset;
  for (int i = 0; i < 4; ++i) {
    dataset.Add(TimeSeries({0.0, 0.0, 0.0, static_cast<double>(i) * 0.01}, 0));
    dataset.Add(TimeSeries({9.0, 9.0, 9.0, 9.0 + i * 0.01}, 1));
  }
  EXPECT_DOUBLE_EQ(LoocvAccuracy(dataset, 0), 1.0);
  EXPECT_DOUBLE_EQ(LoocvAccuracy(dataset, 2), 1.0);
}

TEST(WindowSearchTest, LoocvMatchesBruteForceWithDuplicates) {
  gen::GestureOptions options;
  options.length = 40;
  options.num_classes = 3;
  options.warp_fraction = 0.1;
  options.seed = 124;
  Dataset dataset = gen::MakeGestureDataset(4, options);
  // Copies under another label tie their originals exactly, so the
  // answer depends on which of two equal distances wins.
  for (const size_t i : {size_t{1}, size_t{4}, size_t{4}, size_t{7}}) {
    TimeSeries copy = dataset[i];
    copy.set_label((copy.label() + 1) % 3);
    dataset.Add(copy);
  }
  for (const size_t band : {size_t{0}, size_t{1}, size_t{3}, size_t{8},
                            size_t{40}}) {
    EXPECT_EQ(LoocvAccuracy(dataset, band), BruteForceLoocv(dataset, band))
        << "band " << band;
  }
}

TEST(WindowSearchTest, SweepsRequestedBands) {
  gen::GestureOptions options;
  options.length = 48;
  options.num_classes = 2;
  options.seed = 121;
  const Dataset dataset = gen::MakeGestureDataset(5, options);
  const WindowSearchResult result = FindBestWindowLoocv(dataset, 8, 2);
  EXPECT_EQ(result.bands, (std::vector<size_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(result.accuracy_by_band.size(), 5u);
  EXPECT_GE(result.best_accuracy, 0.0);
  EXPECT_LE(result.best_accuracy, 1.0);
}

TEST(WindowSearchTest, BestBandAchievesReportedAccuracy) {
  gen::GestureOptions options;
  options.length = 64;
  options.num_classes = 3;
  options.warp_fraction = 0.08;
  options.seed = 122;
  const Dataset dataset = gen::MakeGestureDataset(4, options);
  const WindowSearchResult result = FindBestWindowLoocv(dataset, 10, 5);
  EXPECT_DOUBLE_EQ(LoocvAccuracy(dataset, result.best_band),
                   result.best_accuracy);
  // The reported best really is the max of the sweep.
  for (double accuracy : result.accuracy_by_band) {
    EXPECT_LE(accuracy, result.best_accuracy);
  }
}

TEST(WindowSearchTest, TiesPreferSmallerBand) {
  Dataset dataset;
  for (int i = 0; i < 3; ++i) {
    dataset.Add(TimeSeries({0.0, 0.1 * i, 0.0}, 0));
    dataset.Add(TimeSeries({5.0, 5.0 + 0.1 * i, 5.0}, 1));
  }
  // Trivially separable at every band, so accuracy ties at 1.0 everywhere.
  const WindowSearchResult result = FindBestWindowLoocv(dataset, 3);
  EXPECT_EQ(result.best_band, 0u);
}

TEST(WindowSearchTest, WindowPercentHelper) {
  WindowSearchResult result;
  result.best_band = 5;
  EXPECT_DOUBLE_EQ(result.best_window_percent(100), 5.0);
}

TEST(WindowSearchTest, WarpedClassesNeedNonZeroWindow) {
  // With heavy within-class warping and near-identical class shapes,
  // Euclidean (band 0) should do worse than a modest window.
  gen::GestureOptions options;
  options.length = 80;
  options.num_classes = 2;
  options.warp_fraction = 0.15;
  options.noise_stddev = 0.02;
  options.seed = 123;
  const Dataset dataset = gen::MakeGestureDataset(8, options);
  const double at_zero = LoocvAccuracy(dataset, 0);
  const double at_twelve = LoocvAccuracy(dataset, 12);
  EXPECT_GE(at_twelve, at_zero);
}

}  // namespace
}  // namespace warp
