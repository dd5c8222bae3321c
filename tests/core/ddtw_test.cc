// Unit tests for Derivative DTW.

#include "warp/core/ddtw.h"

#include <gtest/gtest.h>

#include "warp/gen/random_walk.h"

namespace warp {
namespace {

TEST(DerivativeTransformTest, LinearRampHasConstantDerivative) {
  std::vector<double> ramp;
  for (int i = 0; i < 10; ++i) ramp.push_back(2.0 * i);
  const std::vector<double> d = DerivativeTransform(ramp);
  ASSERT_EQ(d.size(), ramp.size());
  for (double v : d) EXPECT_NEAR(v, 2.0, 1e-12);
}

TEST(DerivativeTransformTest, ConstantSeriesHasZeroDerivative) {
  const std::vector<double> flat(8, 3.5);
  for (double v : DerivativeTransform(flat)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(DerivativeTransformTest, KnownInteriorFormula) {
  const std::vector<double> x = {0.0, 1.0, 4.0, 5.0};
  const std::vector<double> d = DerivativeTransform(x);
  // d[1] = ((1-0) + (4-0)/2)/2 = 1.5; d[2] = ((4-1) + (5-1)/2)/2 = 2.5.
  EXPECT_DOUBLE_EQ(d[1], 1.5);
  EXPECT_DOUBLE_EQ(d[2], 2.5);
  EXPECT_DOUBLE_EQ(d[0], d[1]);
  EXPECT_DOUBLE_EQ(d[3], d[2]);
}

TEST(DdtwTest, LevelShiftIsInvisible) {
  // DDTW is invariant to adding a constant offset; plain DTW is not.
  Rng rng(141);
  const std::vector<double> x = gen::RandomWalk(60, rng);
  std::vector<double> shifted = x;
  for (double& v : shifted) v += 100.0;
  EXPECT_NEAR(DdtwDistance(x, shifted, 5), 0.0, 1e-9);
  EXPECT_GT(CdtwDistance(x, shifted, 5), 1000.0);
}

TEST(DdtwTest, AgreesWithDtwOnTransformedSeries) {
  Rng rng(142);
  const std::vector<double> x = gen::RandomWalk(50, rng);
  const std::vector<double> y = gen::RandomWalk(50, rng);
  EXPECT_DOUBLE_EQ(
      DdtwDistance(x, y, 7),
      CdtwDistance(DerivativeTransform(x), DerivativeTransform(y), 7));
}

}  // namespace
}  // namespace warp
