// Parameterized property sweeps over the whole DTW family.
//
// Each property is instantiated over a grid of (length, band/radius, cost
// kind, seed) combinations via INSTANTIATE_TEST_SUITE_P, so one logical
// invariant is exercised across dozens of concrete configurations.

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "testing/reference_impls.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/lower_bounds.h"
#include "warp/gen/random_walk.h"
#include "warp/simd/dispatch.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace {

// (length, band, cost kind, seed)
using BandParam = std::tuple<size_t, size_t, CostKind, uint64_t>;

class CdtwPropertyTest : public ::testing::TestWithParam<BandParam> {
 protected:
  void SetUp() override {
    const auto [length, band, cost, seed] = GetParam();
    length_ = length;
    band_ = band;
    cost_ = cost;
    Rng rng(seed);
    x_ = ZNormalized(gen::RandomWalk(length, rng));
    y_ = ZNormalized(gen::RandomWalk(length, rng));
  }

  size_t length_;
  size_t band_;
  CostKind cost_;
  std::vector<double> x_;
  std::vector<double> y_;
};

TEST_P(CdtwPropertyTest, MatchesNaiveReference) {
  EXPECT_NEAR(CdtwDistance(x_, y_, band_, cost_),
              testing::RefCdtw(x_, y_, band_, cost_), 1e-9);
}

TEST_P(CdtwPropertyTest, SymmetricInArguments) {
  EXPECT_NEAR(CdtwDistance(x_, y_, band_, cost_),
              CdtwDistance(y_, x_, band_, cost_), 1e-9);
}

TEST_P(CdtwPropertyTest, BoundedBelowByUnconstrainedDtw) {
  EXPECT_GE(CdtwDistance(x_, y_, band_, cost_),
            DtwDistance(x_, y_, cost_) - 1e-9);
}

TEST_P(CdtwPropertyTest, BoundedAboveByEuclidean) {
  // The diagonal is an admissible path in every Sakoe–Chiba window.
  EXPECT_LE(CdtwDistance(x_, y_, band_, cost_),
            EuclideanDistance(x_, y_, cost_) + 1e-9);
}

TEST_P(CdtwPropertyTest, PathEngineAgreesAndPathIsValid) {
  const DtwResult result = Cdtw(x_, y_, band_, cost_);
  EXPECT_NEAR(result.distance, CdtwDistance(x_, y_, band_, cost_), 1e-9);
  EXPECT_TRUE(result.path.IsValid(length_, length_));
  EXPECT_NEAR(result.path.CostAlong(x_, y_, cost_), result.distance, 1e-9);
  EXPECT_LE(result.path.MaxDiagonalDeviation(), band_);
}

TEST_P(CdtwPropertyTest, LbKeoghIsALowerBound) {
  const Envelope env = ComputeEnvelope(x_, band_);
  EXPECT_LE(LbKeogh(env, y_, cost_),
            CdtwDistance(x_, y_, band_, cost_) + 1e-9);
}

TEST_P(CdtwPropertyTest, SelfDistanceIsZero) {
  EXPECT_NEAR(CdtwDistance(x_, x_, band_, cost_), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CdtwPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(2, 9, 33, 128),
                       ::testing::Values<size_t>(0, 1, 5, 16),
                       ::testing::Values(CostKind::kSquared,
                                         CostKind::kAbsolute),
                       ::testing::Values<uint64_t>(101, 202)));

// ---------------------------------------------------------------------------

// (length x, length y, radius, seed)
using FastDtwParam = std::tuple<size_t, size_t, size_t, uint64_t>;

class FastDtwPropertyTest : public ::testing::TestWithParam<FastDtwParam> {
 protected:
  void SetUp() override {
    const auto [n, m, radius, seed] = GetParam();
    n_ = n;
    m_ = m;
    radius_ = radius;
    Rng rng(seed);
    x_ = gen::RandomWalk(n, rng);
    y_ = gen::RandomWalk(m, rng);
  }

  size_t n_;
  size_t m_;
  size_t radius_;
  std::vector<double> x_;
  std::vector<double> y_;
};

TEST_P(FastDtwPropertyTest, NeverBelowExactDtw) {
  EXPECT_GE(FastDtwDistance(x_, y_, radius_), DtwDistance(x_, y_) - 1e-9);
}

TEST_P(FastDtwPropertyTest, PathIsValidAndConsistent) {
  const DtwResult result = FastDtw(x_, y_, radius_);
  EXPECT_TRUE(result.path.IsValid(n_, m_));
  EXPECT_NEAR(result.path.CostAlong(x_, y_), result.distance, 1e-9);
}

TEST_P(FastDtwPropertyTest, DeterministicAcrossCalls) {
  EXPECT_DOUBLE_EQ(FastDtwDistance(x_, y_, radius_),
                   FastDtwDistance(x_, y_, radius_));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastDtwPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(2, 31, 64, 257),
                       ::testing::Values<size_t>(2, 31, 64, 257),
                       ::testing::Values<size_t>(0, 1, 5, 20),
                       ::testing::Values<uint64_t>(303)));

// ---------------------------------------------------------------------------
// Early-abandoning soundness across a grid of thresholds.

// (band, threshold scale, seed, SIMD mode): kOff runs the row engine, kOn
// the anti-diagonal sweep at every band, narrow ones included.
using AbandonParam = std::tuple<size_t, double, uint64_t, simd::SimdMode>;

class AbandonPropertyTest : public ::testing::TestWithParam<AbandonParam> {};

TEST_P(AbandonPropertyTest, AbandonImpliesDistanceAboveThreshold) {
  const auto [band, threshold_scale, seed, mode] = GetParam();
  const simd::ScopedSimdMode scoped(mode);
  Rng rng(seed);
  for (int round = 0; round < 10; ++round) {
    const std::vector<double> x = ZNormalized(gen::RandomWalk(48, rng));
    const std::vector<double> y = ZNormalized(gen::RandomWalk(48, rng));
    const double exact = CdtwDistance(x, y, band);
    const double threshold = exact * threshold_scale;
    const double result = CdtwDistanceAbandoning(x, y, band, threshold);
    if (std::isinf(result)) {
      EXPECT_GT(exact, threshold);
    } else {
      EXPECT_EQ(result, exact);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AbandonPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(0, 2, 8, 48),
                       ::testing::Values(0.25, 0.5, 0.9, 1.0, 1.1, 2.0),
                       ::testing::Values<uint64_t>(404, 505),
                       ::testing::Values(simd::SimdMode::kOff,
                                         simd::SimdMode::kOn)));

}  // namespace
}  // namespace warp
