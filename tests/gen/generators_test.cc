// Unit tests for the data generators: determinism, shape properties, and
// the domain characteristics each paper experiment relies on.

#include <cmath>

#include <gtest/gtest.h>

#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/adversarial.h"
#include "warp/gen/chroma.h"
#include "warp/gen/fall.h"
#include "warp/gen/gesture.h"
#include "warp/gen/power_demand.h"
#include "warp/gen/random_walk.h"
#include "warp/gen/warping.h"
#include "warp/ts/paa.h"

namespace warp {
namespace gen {
namespace {

TEST(WarpMapTest, EndpointsFixedAndMonotone) {
  Rng rng(91);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 10 + rng.UniformInt(500);
    const double fraction = rng.Uniform(0.0, 0.3);
    const std::vector<double> map = MakeSmoothMonotoneWarp(n, fraction, rng);
    ASSERT_EQ(map.size(), n);
    EXPECT_DOUBLE_EQ(map.front(), 0.0);
    EXPECT_DOUBLE_EQ(map.back(), static_cast<double>(n - 1));
    for (size_t i = 1; i < n; ++i) EXPECT_GE(map[i], map[i - 1]);
  }
}

TEST(WarpMapTest, DeviationBounded) {
  Rng rng(92);
  const size_t n = 400;
  const double fraction = 0.05;
  for (int round = 0; round < 10; ++round) {
    const std::vector<double> map = MakeSmoothMonotoneWarp(n, fraction, rng);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::fabs(map[i] - static_cast<double>(i)),
                fraction * n + 1e-9);
    }
  }
}

TEST(WarpMapTest, ZeroFractionIsIdentity) {
  Rng rng(93);
  const std::vector<double> map = MakeSmoothMonotoneWarp(50, 0.0, rng);
  for (size_t i = 0; i < map.size(); ++i) {
    EXPECT_NEAR(map[i], static_cast<double>(i), 1e-9);
  }
}

TEST(WarpMapTest, ApplyIdentityReturnsSeries) {
  Rng rng(94);
  const std::vector<double> x = RandomWalk(64, rng);
  std::vector<double> identity(64);
  for (size_t i = 0; i < 64; ++i) identity[i] = static_cast<double>(i);
  const std::vector<double> warped = ApplyWarpMap(x, identity);
  for (size_t i = 0; i < 64; ++i) EXPECT_NEAR(warped[i], x[i], 1e-12);
}

TEST(WarpedSeriesTest, SmallDtwDistanceToOriginal) {
  // The whole point of the warp generator: the warped copy is close under
  // DTW with an adequate band, far under Euclidean.
  Rng rng(95);
  const std::vector<double> x = RandomWalk(300, rng);
  const std::vector<double> y = ApplyRandomWarp(x, 0.05, rng);
  const double cdtw = CdtwDistanceFraction(x, y, 0.06);
  const double euclidean = EuclideanDistance(x, y);
  EXPECT_LT(cdtw, euclidean * 0.5);
}

TEST(RandomWalkTest, DeterministicAndCorrectLength) {
  Rng a(96);
  Rng b(96);
  EXPECT_EQ(RandomWalk(100, a), RandomWalk(100, b));
  EXPECT_EQ(RandomWalk(17, a).size(), 17u);
}

TEST(RandomWalkDatasetTest, ShapeAndNormalization) {
  const Dataset dataset = RandomWalkDataset(10, 64, 97);
  EXPECT_EQ(dataset.size(), 10u);
  EXPECT_EQ(dataset.UniformLength(), 64u);
  for (const auto& series : dataset.series()) {
    EXPECT_NEAR(series.Mean(), 0.0, 1e-9);
  }
}

TEST(GestureTest, TemplatesAreClassDistinct) {
  const std::vector<double> t0 = GestureTemplate(0, 256, 7);
  const std::vector<double> t1 = GestureTemplate(1, 256, 7);
  EXPECT_GT(EuclideanDistance(t0, t1), 1.0);
  // And deterministic.
  EXPECT_EQ(t0, GestureTemplate(0, 256, 7));
}

TEST(GestureTest, DatasetHasRequestedShape) {
  GestureOptions options;
  options.length = 128;
  options.num_classes = 4;
  const Dataset dataset = MakeGestureDataset(5, options);
  EXPECT_EQ(dataset.size(), 20u);
  EXPECT_EQ(dataset.UniformLength(), 128u);
  EXPECT_EQ(dataset.Labels(), (std::vector<int>{0, 1, 2, 3}));
}

TEST(GestureTest, WithinClassCloserThanBetweenClassUnderCdtw) {
  GestureOptions options;
  options.length = 128;
  options.num_classes = 2;
  options.seed = 99;
  Rng rng(100);
  const TimeSeries a1 = MakeGesture(0, options, rng);
  const TimeSeries a2 = MakeGesture(0, options, rng);
  const TimeSeries b1 = MakeGesture(1, options, rng);
  const size_t band = 13;  // ~10% of 128.
  const double within = CdtwDistance(a1.view(), a2.view(), band);
  const double between = CdtwDistance(a1.view(), b1.view(), band);
  EXPECT_LT(within, between);
}

TEST(GestureTest, MultiChannelShape) {
  GestureOptions options;
  options.length = 64;
  options.num_classes = 3;
  const auto dataset = MakeMultiGestureDataset(2, 4, options);
  EXPECT_EQ(dataset.size(), 6u);
  for (const auto& series : dataset) {
    EXPECT_EQ(series.num_channels(), 4u);
    EXPECT_EQ(series.length(), 64u);
  }
}

TEST(ChromaTest, PerformancePairAlignsUnderSmallBand) {
  ChromaOptions options;
  options.length = 2000;
  const auto [studio, live] = MakePerformancePair(options);
  EXPECT_EQ(studio.size(), 2000u);
  EXPECT_EQ(live.size(), 2000u);
  // cDTW at the paper's window absorbs the tempo warp almost fully.
  const double banded = CdtwDistanceFraction(studio, live, 0.01);
  const double euclidean = EuclideanDistance(studio, live);
  EXPECT_LT(banded, euclidean);
}

TEST(PowerDemandTest, DishwasherNightsCarryThePattern) {
  Rng rng(101);
  const TimeSeries quiet = MakeQuietNight(450, rng);
  const TimeSeries dishwasher = MakeDishwasherNight(450, 30, rng);
  EXPECT_EQ(quiet.label(), kQuietNightLabel);
  EXPECT_EQ(dishwasher.label(), kDishwasherNightLabel);
  EXPECT_GT(dishwasher.Max(), quiet.Max() + 1.0);
}

TEST(PowerDemandTest, ShiftedProgramsAlignUnderWideWindowOnly) {
  // The Case-C property: W is a large fraction of N. The paper estimates
  // W = 34% from the third peak pair; shift the program by ~33% here.
  Rng rng(102);
  const size_t n = 450;
  const TimeSeries early = MakeDishwasherNight(n, 10, rng);
  const TimeSeries late = MakeDishwasherNight(n, 10 + n / 3, rng);
  const double wide = CdtwDistanceFraction(early.view(), late.view(), 0.40);
  const double narrow = CdtwDistanceFraction(early.view(), late.view(), 0.05);
  EXPECT_LT(wide, narrow * 0.5);
}

TEST(PowerDemandTest, DatasetMixesLabels) {
  const Dataset dataset = MakePowerDemandDataset(100, 200, 0.5, 103);
  const auto counts = dataset.ClassCounts();
  EXPECT_GT(counts.at(kQuietNightLabel), 20u);
  EXPECT_GT(counts.at(kDishwasherNightLabel), 20u);
}

TEST(FallTest, PairHasOppositeFallPositions) {
  Rng rng(104);
  const auto [early, late] = MakeFallPair(2.0, 100.0, rng);
  EXPECT_EQ(early.size(), 200u);
  EXPECT_EQ(late.size(), 200u);
  // Early fall: low at the end. Late fall: high until near the end.
  EXPECT_LT(early[150], 0.2);
  EXPECT_GT(late[100], 0.8);
}

TEST(FallTest, AlignmentRequiresNearFullWarping) {
  Rng rng(105);
  const auto [early, late] = MakeFallPair(2.0, 100.0, rng);
  const double full = DtwDistance(early, late);
  const double narrow = CdtwDistanceFraction(early, late, 0.05);
  // With only 5% warping the falls cannot be aligned.
  EXPECT_GT(narrow, full * 5.0);
}

TEST(AdversarialTest, BurstVanishesUnderHalving) {
  const AdversarialTriple triple = MakeAdversarialTriple();
  const std::vector<double> halved = HalveByTwo(triple.a);
  double max_abs = 0.0;
  for (double v : halved) max_abs = std::max(max_abs, std::fabs(v));
  // Only the bump (amplitude ~0.04) survives.
  EXPECT_LT(max_abs, 0.15);
}

TEST(AdversarialTest, FullDtwFindsNearPerfectAlignment) {
  const AdversarialTriple triple = MakeAdversarialTriple();
  const double d_ab = DtwDistance(triple.a, triple.b);
  const double d_ac = DtwDistance(triple.a, triple.c);
  const double d_bc = DtwDistance(triple.b, triple.c);
  EXPECT_LT(d_ab, 0.2);
  EXPECT_GT(d_ac, 10.0 * d_ab);
  EXPECT_GT(d_bc, 10.0 * d_ab);
}

TEST(AdversarialTest, FastDtwInflatesOnlyTheAbPair) {
  const AdversarialTriple triple = MakeAdversarialTriple();
  const double exact_ab = DtwDistance(triple.a, triple.b);
  const double fast_ab = FastDtwDistance(triple.a, triple.b, 20);
  EXPECT_GT(fast_ab, 100.0 * exact_ab);
  const double exact_ac = DtwDistance(triple.a, triple.c);
  const double fast_ac = FastDtwDistance(triple.a, triple.c, 20);
  EXPECT_LT(fast_ac, 1.5 * exact_ac + 1.0);
}

}  // namespace
}  // namespace gen
}  // namespace warp
