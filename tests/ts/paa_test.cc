// Unit tests for PAA, halve-by-two coarsening, and resampling.

#include "warp/ts/paa.h"

#include <gtest/gtest.h>

#include "warp/common/random.h"
#include "warp/gen/random_walk.h"

namespace warp {
namespace {

TEST(PaaTest, ExactDivision) {
  const std::vector<double> x = {1.0, 3.0, 5.0, 7.0};
  EXPECT_EQ(Paa(x, 2), (std::vector<double>{2.0, 6.0}));
  EXPECT_EQ(Paa(x, 4), x);
  EXPECT_EQ(Paa(x, 1), (std::vector<double>{4.0}));
}

TEST(PaaTest, FractionalBoundariesAreWeighted) {
  // Three points into two segments: the middle point contributes half to
  // each segment: [(1 + 0.5*2)/1.5, (0.5*2 + 3)/1.5].
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> paa = Paa(x, 2);
  ASSERT_EQ(paa.size(), 2u);
  EXPECT_NEAR(paa[0], (1.0 + 0.5 * 2.0) / 1.5, 1e-12);
  EXPECT_NEAR(paa[1], (0.5 * 2.0 + 3.0) / 1.5, 1e-12);
}

TEST(PaaTest, PreservesMeanOfSeries) {
  Rng rng(61);
  const std::vector<double> x = gen::RandomWalk(100, rng);
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= 100.0;
  for (size_t segments : {1u, 4u, 10u, 25u, 50u, 100u}) {
    const std::vector<double> paa = Paa(x, segments);
    double paa_mean = 0.0;
    for (double v : paa) paa_mean += v;
    paa_mean /= static_cast<double>(paa.size());
    EXPECT_NEAR(paa_mean, mean, 1e-9) << "segments=" << segments;
  }
}

TEST(HalveByTwoTest, AveragesAdjacentPairs) {
  const std::vector<double> x = {1.0, 3.0, 5.0, 9.0};
  EXPECT_EQ(HalveByTwo(x), (std::vector<double>{2.0, 7.0}));
}

TEST(HalveByTwoTest, DropsOddTail) {
  // The reference FastDTW semantics: a trailing unpaired element vanishes.
  const std::vector<double> x = {1.0, 3.0, 100.0};
  EXPECT_EQ(HalveByTwo(x), (std::vector<double>{2.0}));
}

TEST(HalveByTwoTest, CancelsPeriodTwoAlternation) {
  // The property the adversarial construction exploits.
  std::vector<double> x;
  for (int i = 0; i < 16; ++i) x.push_back(i % 2 == 0 ? 4.0 : -4.0);
  for (double v : HalveByTwo(x)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ResampleLinearTest, IdentityWhenSameLength) {
  const std::vector<double> x = {1.0, 2.0, 5.0};
  EXPECT_EQ(ResampleLinear(x, 3), x);
}

TEST(ResampleLinearTest, EndpointsPreserved) {
  const std::vector<double> x = {3.0, -1.0, 7.0, 2.0};
  for (size_t target : {2u, 5u, 17u}) {
    const std::vector<double> resampled = ResampleLinear(x, target);
    ASSERT_EQ(resampled.size(), target);
    EXPECT_DOUBLE_EQ(resampled.front(), 3.0);
    EXPECT_DOUBLE_EQ(resampled.back(), 2.0);
  }
}

TEST(ResampleLinearTest, UpsampleInterpolatesLinearly) {
  const std::vector<double> x = {0.0, 2.0};
  const std::vector<double> up = ResampleLinear(x, 5);
  EXPECT_EQ(up, (std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0}));
}

TEST(ResampleLinearTest, SinglePointExpands) {
  const std::vector<double> x = {7.0};
  EXPECT_EQ(ResampleLinear(x, 4), (std::vector<double>{7.0, 7.0, 7.0, 7.0}));
}

}  // namespace
}  // namespace warp
