// Unit tests for the exact DTW kernels: golden values on tiny series,
// degenerate shapes, and agreement between the distance-only, banded,
// windowed, and path-recovering engines.

#include "warp/core/dtw.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/reference_impls.h"
#include "warp/common/metrics.h"
#include "warp/gen/random_walk.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace {

TEST(DtwDistanceTest, IdenticalSeriesIsZero) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(DtwDistance(x, x), 0.0);
}

TEST(DtwDistanceTest, SingletonPair) {
  const std::vector<double> x = {2.0};
  const std::vector<double> y = {5.0};
  EXPECT_DOUBLE_EQ(DtwDistance(x, y), 9.0);
  EXPECT_DOUBLE_EQ(DtwDistance(x, y, CostKind::kAbsolute), 3.0);
}

TEST(DtwDistanceTest, SingletonAgainstSeries) {
  // A single point must align against every point of the other series.
  const std::vector<double> x = {1.0};
  const std::vector<double> y = {2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(DtwDistance(x, y), 1.0 + 4.0 + 9.0);
}

TEST(DtwDistanceTest, KnownSmallExample) {
  // Hand-computed: x = [0,1,2], y = [0,2,2].
  // Optimal alignment (0,0)(1,1)(2,1)(2,2) or (0,0)(1,1)(2,2):
  // (0-0)^2 + (1-2)^2 + (2-2)^2 = 1.
  const std::vector<double> x = {0.0, 1.0, 2.0};
  const std::vector<double> y = {0.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(DtwDistance(x, y), 1.0);
}

TEST(DtwDistanceTest, ShiftedStepAlignsToSmallCost) {
  // A step function and a one-sample-delayed copy: DTW should absorb the
  // shift almost entirely, Euclidean should not.
  std::vector<double> x(20, 0.0);
  std::vector<double> y(20, 0.0);
  for (size_t t = 10; t < 20; ++t) x[t] = 1.0;
  for (size_t t = 11; t < 20; ++t) y[t] = 1.0;
  EXPECT_DOUBLE_EQ(DtwDistance(x, y), 0.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(x, y), 1.0);
}

TEST(DtwDistanceTest, MatchesNaiveReferenceOnRandomWalks) {
  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    const size_t n = 2 + rng.UniformInt(40);
    const size_t m = 2 + rng.UniformInt(40);
    const std::vector<double> x = gen::RandomWalk(n, rng);
    const std::vector<double> y = gen::RandomWalk(m, rng);
    EXPECT_NEAR(DtwDistance(x, y), testing::RefDtw(x, y), 1e-9)
        << "n=" << n << " m=" << m;
    EXPECT_NEAR(DtwDistance(x, y, CostKind::kAbsolute),
                testing::RefDtw(x, y, CostKind::kAbsolute), 1e-9);
  }
}

TEST(DtwDistanceTest, ReportsCellCount) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y = {0.0, 1.0, 2.0, 3.0};
  uint64_t cells = 0;
  DtwDistance(x, y, CostKind::kSquared, &cells);
  EXPECT_EQ(cells, 16u);
}

TEST(CdtwTest, ZeroBandEqualsEuclideanOnEqualLengths) {
  Rng rng(7);
  const std::vector<double> x = gen::RandomWalk(50, rng);
  const std::vector<double> y = gen::RandomWalk(50, rng);
  EXPECT_NEAR(CdtwDistance(x, y, 0), EuclideanDistance(x, y), 1e-9);
}

TEST(CdtwTest, FullBandEqualsDtw) {
  Rng rng(8);
  const std::vector<double> x = gen::RandomWalk(60, rng);
  const std::vector<double> y = gen::RandomWalk(60, rng);
  EXPECT_NEAR(CdtwDistance(x, y, 60), DtwDistance(x, y), 1e-9);
  EXPECT_NEAR(CdtwDistanceFraction(x, y, 1.0), DtwDistance(x, y), 1e-9);
}

TEST(CdtwTest, DistanceDecreasesMonotonicallyInBand) {
  // Widening the band can only find an equal or better path.
  Rng rng(9);
  const std::vector<double> x = gen::RandomWalk(64, rng);
  const std::vector<double> y = gen::RandomWalk(64, rng);
  double previous = CdtwDistance(x, y, 0);
  for (size_t band = 1; band <= 64; band += 3) {
    const double d = CdtwDistance(x, y, band);
    EXPECT_LE(d, previous + 1e-12) << "band=" << band;
    previous = d;
  }
}

TEST(CdtwTest, MatchesReferenceAcrossBands) {
  Rng rng(10);
  const std::vector<double> x = gen::RandomWalk(30, rng);
  const std::vector<double> y = gen::RandomWalk(30, rng);
  for (size_t band : {0u, 1u, 2u, 5u, 10u, 29u, 100u}) {
    EXPECT_NEAR(CdtwDistance(x, y, band), testing::RefCdtw(x, y, band), 1e-9)
        << "band=" << band;
  }
}

TEST(CdtwTest, UnequalLengthsMatchReference) {
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 2 + rng.UniformInt(30);
    const size_t m = 2 + rng.UniformInt(30);
    const std::vector<double> x = gen::RandomWalk(n, rng);
    const std::vector<double> y = gen::RandomWalk(m, rng);
    for (size_t band : {0u, 1u, 3u, 8u}) {
      EXPECT_NEAR(CdtwDistance(x, y, band), testing::RefCdtw(x, y, band),
                  1e-9)
          << "n=" << n << " m=" << m << " band=" << band;
    }
  }
}

TEST(CdtwTest, ReusedBufferGivesSameAnswer) {
  Rng rng(12);
  const std::vector<double> x = gen::RandomWalk(40, rng);
  const std::vector<double> y = gen::RandomWalk(40, rng);
  DtwBuffer buffer;
  const double first = CdtwDistance(x, y, 5, CostKind::kSquared, &buffer);
  const double second = CdtwDistance(x, y, 5, CostKind::kSquared, &buffer);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_DOUBLE_EQ(first, CdtwDistance(x, y, 5));
}

TEST(CdtwAbandoningTest, ReturnsInfinityWhenThresholdExceeded) {
  const std::vector<double> x = {0.0, 0.0, 0.0, 0.0};
  const std::vector<double> y = {10.0, 10.0, 10.0, 10.0};
  const double d = CdtwDistanceAbandoning(x, y, 4, /*abandon_above=*/1.0);
  EXPECT_TRUE(std::isinf(d));
}

TEST(CdtwAbandoningTest, MatchesExactWhenNotAbandoned) {
  Rng rng(13);
  const std::vector<double> x = gen::RandomWalk(50, rng);
  const std::vector<double> y = gen::RandomWalk(50, rng);
  const double exact = CdtwDistance(x, y, 5);
  EXPECT_DOUBLE_EQ(CdtwDistanceAbandoning(x, y, 5, exact + 1.0), exact);
  // Threshold exactly at the distance must not abandon (strictly-greater
  // abandoning) so search code can use best-so-far as the threshold.
  EXPECT_DOUBLE_EQ(CdtwDistanceAbandoning(x, y, 5, exact), exact);
}

TEST(CdtwAbandoningTest, NeverAbandonsBelowTrueDistance) {
  // If it abandons, the true distance must exceed the threshold.
  Rng rng(14);
  for (int round = 0; round < 30; ++round) {
    const std::vector<double> x = gen::RandomWalk(32, rng);
    const std::vector<double> y = gen::RandomWalk(32, rng);
    const double exact = CdtwDistance(x, y, 4);
    const double threshold = exact * rng.Uniform(0.3, 1.5);
    const double abandoned = CdtwDistanceAbandoning(x, y, 4, threshold);
    if (std::isinf(abandoned)) {
      EXPECT_GT(exact, threshold);
    } else {
      EXPECT_DOUBLE_EQ(abandoned, exact);
    }
  }
}

// Müller's 5x6 example (Fundamentals of Music Processing) under the
// absolute cost. Its cumulative-cost matrix, row by row:
//    1   2   3  10  16  17
//    2   4   5   8  12  13
//    3   5   7  10  12  13
//    9  11  13   7   8  14
//   10  10  11  14  13   9
// so DTW = 9 and the row minima are 1, 2, 3, 7, 9. Band 6 spans every
// column, and the unequal lengths take BandRowRange. The abandoning
// kernel stops after the first row whose minimum exceeds the bound; the
// kill rule is strict, so a distance equal to the bound comes back.
TEST(CdtwAbandoningTest, MuellerMatrixPinsWhereTheKernelAbandons) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> x = {1.0, 3.0, 3.0, 8.0, 1.0};
  const std::vector<double> y = {2.0, 0.0, 0.0, 8.0, 7.0, 2.0};
  EXPECT_EQ(DtwDistance(x, y, CostKind::kAbsolute), 9.0);

  struct Case {
    double bound;
    double distance;
    uint64_t cells;
    uint64_t abandons;
  };
  // The row engine tests each row's minimum.
  const Case rows[] = {
      {6.5, kInf, 24, 1},   // Row 3's minimum 7 > 6.5: 4 rows of 6 cells.
      {7.0, kInf, 30, 1},   // Row 3 survives (7 is not > 7); row 4's 9 dies.
      {8.99, kInf, 30, 1},  // The same, just under the distance.
      {9.0, 9.0, 30, 0},    // 9 is not > 9: the exact distance.
  };
  // The SIMD wavefront tests the anti-diagonal pair (d - 1, d) at
  // d % 8 == 7; on this 5x6 matrix that is only the pair (6, 7), whose
  // smallest cell is D(3, 3) = 7, after 27 of the 30 cells. The final pair
  // (8, 9) is not a test point, so a bound in [7, 9) runs to the end.
  const Case diagonals[] = {
      {6.5, kInf, 27, 1},  // D(3, 3) = 7 > 6.5 kills the pair (6, 7).
      {7.0, 9.0, 30, 0},   // 7 is not > 7; nothing is tested after d = 7.
      {8.99, 9.0, 30, 0},  // The same: the exact distance comes back.
      {9.0, 9.0, 30, 0},
  };
  const std::pair<simd::SimdMode, const Case*> engines[] = {
      {simd::SimdMode::kOff, rows}, {simd::SimdMode::kOn, diagonals}};
  for (const auto& [mode, cases] : engines) {
    const simd::ScopedSimdMode scoped(mode);
    for (size_t k = 0; k < 4; ++k) {
      const Case& c = cases[k];
      const obs::MetricsSnapshot before = obs::SnapshotCounters();
      const double d =
          CdtwDistanceAbandoning(x, y, 6, c.bound, CostKind::kAbsolute);
      const obs::MetricsSnapshot delta = obs::CountersSince(before);
      const std::string label = std::string(simd::SimdModeName(mode)) +
                                " bound " + std::to_string(c.bound);
      EXPECT_EQ(d, c.distance) << label;
      EXPECT_EQ(delta.values[static_cast<size_t>(obs::Counter::kDtwCells)],
                c.cells)
          << label;
      EXPECT_EQ(
          delta.values[static_cast<size_t>(obs::Counter::kDtwEarlyAbandons)],
          c.abandons)
          << label;
    }
  }
}

TEST(WindowedDtwTest, FullWindowEqualsDtw) {
  Rng rng(15);
  const std::vector<double> x = gen::RandomWalk(40, rng);
  const std::vector<double> y = gen::RandomWalk(35, rng);
  const WarpingWindow window = WarpingWindow::Full(x.size(), y.size());
  EXPECT_NEAR(WindowedDtw(x, y, window).distance, DtwDistance(x, y), 1e-9);
}

TEST(WindowedDtwTest, SakoeChibaWindowEqualsBandedKernel) {
  Rng rng(16);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 2 + rng.UniformInt(40);
    const size_t m = 2 + rng.UniformInt(40);
    const std::vector<double> x = gen::RandomWalk(n, rng);
    const std::vector<double> y = gen::RandomWalk(m, rng);
    for (size_t band : {0u, 1u, 4u, 12u}) {
      const WarpingWindow window = WarpingWindow::SakoeChiba(n, m, band);
      EXPECT_NEAR(WindowedDtw(x, y, window).distance,
                  CdtwDistance(x, y, band), 1e-9)
          << "n=" << n << " m=" << m << " band=" << band;
    }
  }
}

TEST(WindowedDtwTest, PathVersionAgreesWithDistanceVersion) {
  Rng rng(17);
  const std::vector<double> x = gen::RandomWalk(50, rng);
  const std::vector<double> y = gen::RandomWalk(45, rng);
  const WarpingWindow window =
      WarpingWindow::SakoeChiba(x.size(), y.size(), 8);
  const DtwResult result = WindowedDtw(x, y, window);
  EXPECT_NEAR(result.distance, CdtwDistance(x, y, 8), 1e-9);
  EXPECT_TRUE(result.path.IsValid(x.size(), y.size()));
}

TEST(WindowedDtwTest, PathCostEqualsReportedDistance) {
  Rng rng(18);
  const std::vector<double> x = gen::RandomWalk(30, rng);
  const std::vector<double> y = gen::RandomWalk(30, rng);
  const DtwResult result = Dtw(x, y);
  EXPECT_NEAR(result.path.CostAlong(x, y), result.distance, 1e-9);
}

TEST(WindowedDtwTest, PathStaysInsideWindow) {
  Rng rng(19);
  const std::vector<double> x = gen::RandomWalk(40, rng);
  const std::vector<double> y = gen::RandomWalk(40, rng);
  const WarpingWindow window =
      WarpingWindow::SakoeChiba(x.size(), y.size(), 3);
  const DtwResult result = WindowedDtw(x, y, window);
  for (const PathPoint& p : result.path.points()) {
    EXPECT_TRUE(window.Contains(p.i, p.j));
  }
  EXPECT_LE(result.path.MaxDiagonalDeviation(), 3u);
}

TEST(WindowedDtwTest, AnyValidPathUpperBoundsDistance) {
  Rng rng(20);
  const std::vector<double> x = gen::RandomWalk(25, rng);
  const std::vector<double> y = gen::RandomWalk(25, rng);
  const double optimal = DtwDistance(x, y);
  // The banded optimum is a valid-but-restricted path: its cost can never
  // be below the unconstrained optimum.
  for (size_t band : {0u, 1u, 2u, 5u}) {
    const DtwResult banded = Cdtw(x, y, band);
    EXPECT_GE(banded.distance, optimal - 1e-12);
    EXPECT_NEAR(banded.path.CostAlong(x, y), banded.distance, 1e-9);
  }
}

TEST(EuclideanTest, BasicAndAbandoning) {
  const std::vector<double> x = {0.0, 0.0, 3.0};
  const std::vector<double> y = {0.0, 4.0, 3.0};
  EXPECT_DOUBLE_EQ(EuclideanDistance(x, y), 16.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(x, y, CostKind::kAbsolute), 4.0);
  EXPECT_TRUE(std::isinf(CdtwDistanceAbandoning(x, y, 0, 15.0)));
  EXPECT_DOUBLE_EQ(CdtwDistanceAbandoning(x, y, 0, 16.0), 16.0);
}

TEST(MultiDtwTest, SingleChannelMatchesScalarDtw) {
  Rng rng(21);
  const std::vector<double> x = gen::RandomWalk(30, rng);
  const std::vector<double> y = gen::RandomWalk(30, rng);
  const MultiSeries mx(std::vector<std::vector<double>>{x});
  const MultiSeries my(std::vector<std::vector<double>>{y});
  EXPECT_NEAR(MultiDtwDistance(mx, my), DtwDistance(x, y), 1e-9);
  EXPECT_NEAR(MultiCdtwDistance(mx, my, 4), CdtwDistance(x, y, 4), 1e-9);
}

TEST(MultiDtwTest, DuplicatedChannelDoublesDistance) {
  Rng rng(22);
  const std::vector<double> x = gen::RandomWalk(30, rng);
  const std::vector<double> y = gen::RandomWalk(30, rng);
  const MultiSeries mx(std::vector<std::vector<double>>{x, x});
  const MultiSeries my(std::vector<std::vector<double>>{y, y});
  EXPECT_NEAR(MultiDtwDistance(mx, my), 2.0 * DtwDistance(x, y), 1e-9);
}

TEST(MultiDtwTest, PathVersionAgrees) {
  Rng rng(23);
  const MultiSeries mx(std::vector<std::vector<double>>{
      gen::RandomWalk(20, rng), gen::RandomWalk(20, rng)});
  const MultiSeries my(std::vector<std::vector<double>>{
      gen::RandomWalk(24, rng), gen::RandomWalk(24, rng)});
  const WarpingWindow window = WarpingWindow::Full(20, 24);
  const DtwResult result = MultiWindowedDtw(mx, my, window);
  EXPECT_NEAR(result.distance, MultiDtwDistance(mx, my), 1e-9);
  EXPECT_TRUE(result.path.IsValid(20, 24));
}

}  // namespace
}  // namespace warp
