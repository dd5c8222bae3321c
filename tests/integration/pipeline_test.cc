// Integration tests: whole-pipeline flows across modules, the way the
// examples (and a real user) compose the library.

#include <cstdio>

#include <gtest/gtest.h>

#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/gesture.h"
#include "warp/mining/dba.h"
#include "warp/mining/nn_classifier.h"
#include "warp/mining/window_search.h"
#include "warp/ts/io.h"

namespace warp {
namespace {

gen::GestureOptions PipelineOptions() {
  gen::GestureOptions options;
  options.length = 128;
  options.num_classes = 4;
  options.warp_fraction = 0.08;
  options.noise_stddev = 0.3;
  options.seed = 2468;
  return options;
}

TEST(PipelineTest, GenerateSearchClassify) {
  // generate -> learn window -> accelerated classify == brute force.
  const Dataset pool = gen::MakeGestureDataset(10, PipelineOptions());
  const auto [train, test] = pool.StratifiedSplit(0.5);

  const WindowSearchResult search = FindBestWindowLoocv(train, 16, 4);
  const AcceleratedNnClassifier classifier(train, search.best_band);
  const ClassificationStats accelerated = classifier.Evaluate(test);

  const ClassificationStats brute = Evaluate1Nn(
      train, test,
      [&](std::span<const double> a, std::span<const double> b) {
        return CdtwDistance(a, b, search.best_band);
      });
  EXPECT_EQ(accelerated.correct, brute.correct);
  EXPECT_GT(accelerated.accuracy, 0.7);
}

TEST(PipelineTest, SaveLoadRoundTripPreservesClassification) {
  const Dataset pool = gen::MakeGestureDataset(6, PipelineOptions());
  const auto [train, test] = pool.StratifiedSplit(0.5);

  const std::string train_path = ::testing::TempDir() + "/pipe_train.tsv";
  const std::string test_path = ::testing::TempDir() + "/pipe_test.tsv";
  std::string error;
  ASSERT_TRUE(SaveUcrFile(train_path, train, &error)) << error;
  ASSERT_TRUE(SaveUcrFile(test_path, test, &error)) << error;

  Dataset train2;
  Dataset test2;
  ASSERT_TRUE(LoadUcrFile(train_path, &train2, &error)) << error;
  ASSERT_TRUE(LoadUcrFile(test_path, &test2, &error)) << error;

  const AcceleratedNnClassifier original(train, 8);
  const AcceleratedNnClassifier reloaded(train2, 8);
  for (size_t q = 0; q < test.size(); ++q) {
    EXPECT_EQ(original.Classify(test[q].view()).label,
              reloaded.Classify(test2[q].view()).label);
  }
}

TEST(PipelineTest, DbaPrototypeClassifiesItsOwnClass) {
  // Compute a DBA prototype per class, then 1-NN against prototypes:
  // a tiny nearest-centroid classifier built from parts.
  const Dataset pool = gen::MakeGestureDataset(8, PipelineOptions());
  const auto [train, test] = pool.StratifiedSplit(0.6);

  std::vector<std::vector<double>> prototypes;
  std::vector<int> prototype_labels;
  for (int label : train.Labels()) {
    std::vector<std::vector<double>> members;
    for (const auto& s : train.series()) {
      if (s.label() == label) members.push_back(s.values());
    }
    DbaOptions dba_options;
    dba_options.iterations = 4;
    dba_options.band = 12;
    prototypes.push_back(DtwBarycenterAverage(members, dba_options).barycenter);
    prototype_labels.push_back(label);
  }

  size_t correct = 0;
  for (const auto& query : test.series()) {
    double best = 1e300;
    int label = -1;
    for (size_t p = 0; p < prototypes.size(); ++p) {
      const double d = CdtwDistance(prototypes[p], query.view(), 12);
      if (d < best) {
        best = d;
        label = prototype_labels[p];
      }
    }
    if (label == query.label()) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()),
            0.7);
}

TEST(PipelineTest, FastDtwPathPluggedIntoDowmstreamCostAccounting) {
  // The approximate path is still a valid alignment: feeding it back as a
  // path cost must reproduce FastDTW's distance and upper-bound DTW's.
  const Dataset pool = gen::MakeGestureDataset(1, PipelineOptions());
  const auto& a = pool[0];
  const auto& b = pool[1];
  const DtwResult fast = FastDtw(a.view(), b.view(), 4);
  EXPECT_NEAR(fast.path.CostAlong(a.view(), b.view()), fast.distance, 1e-9);
  EXPECT_GE(fast.distance, DtwDistance(a.view(), b.view()) - 1e-9);
}

}  // namespace
}  // namespace warp
