// Property-based randomized fuzzing of the warp/check invariant oracles.
//
// One seeded Rng drives hundreds of generated cases — random walks, noisy
// sines, constants, near-duplicates, and the paper's Appendix-A
// adversarial pairs — across a spread of lengths, bands, cost kinds,
// abandon thresholds, FastDTW radii, and thread counts. Every oracle in
// src/warp/check is exercised on every eligible case; the suite fails if
// fewer than 500 oracle evaluations ran, so the coverage floor is itself
// machine-checked. Negative tests then tamper with paths and cascade
// values and assert the oracles reject the forgeries.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/check/bound_oracle.h"
#include "warp/check/exactness_oracle.h"
#include "warp/check/path_oracle.h"
#include "warp/common/random.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/adversarial.h"
#include "warp/gen/random_walk.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace {

constexpr double kTol = 1e-9;

// A generated equal-length pair plus the knobs the oracles take.
struct FuzzCase {
  std::vector<double> x;
  std::vector<double> y;
  size_t band = 0;
  CostKind cost = CostKind::kSquared;
  std::string description;
};

std::vector<double> NoisySine(size_t n, double period, Rng& rng) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = std::sin(2.0 * 3.14159265358979 * static_cast<double>(i) /
                         period) +
                rng.Gaussian(0.0, 0.05);
  }
  return values;
}

FuzzCase DrawCase(Rng& rng, int round) {
  static constexpr size_t kLengths[] = {1, 2, 3, 5, 16, 33, 64, 128};
  FuzzCase c;
  const size_t n = kLengths[rng.UniformInt(uint64_t{8})];
  const uint64_t band_pick = rng.UniformInt(uint64_t{4});
  c.band = band_pick == 0   ? 0
           : band_pick == 1 ? 1
           : band_pick == 2 ? std::max<size_t>(1, n / 8)
                            : n;  // Band >= n degenerates to full DTW.
  c.cost = rng.Bernoulli(0.5) ? CostKind::kSquared : CostKind::kAbsolute;

  const uint64_t kind = rng.UniformInt(uint64_t{5});
  switch (kind) {
    case 0:  // Independent random walks.
      c.x = gen::RandomWalk(n, rng);
      c.y = gen::RandomWalk(n, rng);
      c.description = "random walks";
      break;
    case 1:  // Z-normalized walks (the classification setting).
      c.x = ZNormalized(gen::RandomWalk(n, rng));
      c.y = ZNormalized(gen::RandomWalk(n, rng));
      c.description = "z-normalized walks";
      break;
    case 2:  // Constant vs. constant — degenerate flat series.
      c.x.assign(n, rng.Uniform(-2.0, 2.0));
      c.y.assign(n, rng.Uniform(-2.0, 2.0));
      c.description = "constant series";
      break;
    case 3: {  // Near-duplicates: distances near zero stress tolerances.
      c.x = gen::RandomWalk(n, rng);
      c.y = c.x;
      for (double& v : c.y) v += rng.Gaussian(0.0, 1e-6);
      c.description = "near-duplicate walks";
      break;
    }
    default:  // Noisy sines with different periods.
      c.x = NoisySine(n, 8.0 + static_cast<double>(round % 17), rng);
      c.y = NoisySine(n, 5.0 + static_cast<double>(round % 11), rng);
      c.description = "noisy sines";
      break;
  }
  return c;
}

// Runs every applicable oracle on one case, incrementing `evaluations`
// per oracle invocation. Failures carry the case description and seed.
void RunOracles(const FuzzCase& c, Rng& rng, int round, int* evaluations) {
  std::string error;
  const std::string context =
      c.description + " (round " + std::to_string(round) +
      ", n=" + std::to_string(c.x.size()) +
      ", band=" + std::to_string(c.band) + ")";

  EXPECT_TRUE(check::CheckLowerBoundOrdering(c.x, c.y, c.band, c.cost, kTol,
                                             &error))
      << context << ": " << error;
  ++*evaluations;

  const size_t n = c.x.size();
  std::vector<size_t> bands = {0, 1, std::max<size_t>(2, n / 4), n};
  std::sort(bands.begin(), bands.end());
  EXPECT_TRUE(
      check::CheckCdtwBandMonotone(c.x, c.y, bands, c.cost, kTol, &error))
      << context << ": " << error;
  ++*evaluations;

  // Abandon thresholds below, at, and above the true distance.
  const double exact = CdtwDistance(c.x, c.y, c.band, c.cost);
  for (const double scale : {0.3, 1.0, 1.7}) {
    EXPECT_TRUE(check::CheckAbandoningExact(c.x, c.y, c.band, exact * scale,
                                            c.cost, kTol, &error))
        << context << " (threshold x" << scale << "): " << error;
    ++*evaluations;
  }

  const size_t radius = static_cast<size_t>(rng.UniformInt(uint64_t{6}));
  EXPECT_TRUE(check::CheckFastDtwAdmissible(c.x, c.y, radius, c.cost, kTol,
                                            &error))
      << context << " (radius " << radius << "): " << error;
  ++*evaluations;

  EXPECT_TRUE(
      check::CheckSelfDistanceZero(c.x, c.band, c.cost, kTol, &error))
      << context << ": " << error;
  ++*evaluations;

  EXPECT_TRUE(check::CheckSymmetry(c.x, c.y, c.band, c.cost, kTol, &error))
      << context << ": " << error;
  ++*evaluations;

  // Path oracles on the exact banded alignment: valid, in-window, and
  // cost-consistent.
  const WarpingWindow window = WarpingWindow::SakoeChiba(n, n, c.band);
  const DtwResult banded = WindowedDtw(c.x, c.y, window, c.cost);
  EXPECT_TRUE(check::CheckPath(banded.path, n, n, &error))
      << context << ": " << error;
  ++*evaluations;
  EXPECT_TRUE(check::CheckPathInWindow(banded.path, window, &error))
      << context << ": " << error;
  ++*evaluations;
  EXPECT_TRUE(check::CheckPathCost(banded.path, c.x, c.y, c.cost,
                                   banded.distance, kTol, &error))
      << context << ": " << error;
  ++*evaluations;
}

TEST(CheckPropertyFuzz, OraclesHoldOverSeededRandomCases) {
  Rng rng(0xC0FFEE5EED);
  int evaluations = 0;
  for (int round = 0; round < 48; ++round) {
    const FuzzCase c = DrawCase(rng, round);
    RunOracles(c, rng, round, &evaluations);
    if (::testing::Test::HasFailure()) break;  // First failure explains most.
  }
  // The acceptance floor: at least 500 oracle evaluations actually ran.
  EXPECT_GE(evaluations, 500);
}

TEST(CheckPropertyFuzz, OraclesHoldOnAdversarialPairs) {
  // The paper's Appendix-A construction is the hardest known input for
  // FastDTW; the exactness and bound oracles must hold on it regardless.
  int evaluations = 0;
  Rng rng(0xADA9);
  for (const size_t length : {64, 128, 256}) {
    gen::AdversarialOptions options;
    options.length = length;
    options.burst_length = length / 8;
    options.burst_center_a = length / 5;
    options.burst_center_b = length - length / 5;
    options.bump_center_a = length / 2 + length / 16;
    options.bump_center_b = length / 2 - length / 16;
    const gen::AdversarialTriple triple = gen::MakeAdversarialTriple(options);
    FuzzCase c;
    c.x = triple.a;
    c.y = triple.b;
    c.band = length / 10;
    c.cost = CostKind::kSquared;
    c.description = "adversarial pair";
    RunOracles(c, rng, static_cast<int>(length), &evaluations);
  }
  EXPECT_GE(evaluations, 3 * 11);
}

TEST(CheckPropertyFuzz, CascadeClassifierExactAcrossThreadCounts) {
  // The accelerated 1-NN cascade must match brute force at every thread
  // count the parallel layer supports (and the three runs must agree with
  // each other, which CheckCascadeExact enforces via the shared brute-
  // force reference).
  std::string error;
  for (const uint64_t seed : {11u, 22u, 33u, 44u}) {
    Dataset train = gen::RandomWalkDataset(16, 48, seed);
    Dataset test = gen::RandomWalkDataset(8, 48, seed + 1000);
    for (size_t i = 0; i < train.size(); ++i) {
      train[i].set_label(static_cast<int>(i % 3));
    }
    for (size_t i = 0; i < test.size(); ++i) {
      test[i].set_label(static_cast<int>(i % 3));
    }
    if (seed == 44u) {
      // Exact ties: train series duplicated under another label, and
      // train series reused as queries, whose zero distance later makes
      // a duplicate's lower bounds equal the bound.
      for (const size_t i : {size_t{2}, size_t{5}, size_t{5}}) {
        TimeSeries copy = train[i];
        copy.set_label((copy.label() + 1) % 3);
        train.Add(copy);
      }
      test.Add(train[2]);
      test.Add(train[5]);
    }
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      EXPECT_TRUE(check::CheckCascadeExact(train, test, 5,
                                           CostKind::kSquared, threads, kTol,
                                           &error))
          << "seed " << seed << ", threads " << threads << ": " << error;
    }
  }
}

// ---------------------------------------------------------------------------
// Negative tests: the oracles must catch deliberately broken inputs.

TEST(CheckOracleNegative, TamperedCascadeIsRejected) {
  Rng rng(0xBAD);
  const std::vector<double> x = gen::RandomWalk(64, rng);
  const std::vector<double> y = gen::RandomWalk(64, rng);
  const check::BoundCascade honest =
      check::ComputeBoundCascade(x, y, 5, CostKind::kSquared);
  std::string error;
  ASSERT_TRUE(check::CheckBoundCascade(honest, kTol, &error)) << error;

  // A lower bound that overshoots the exact distance — the forgery that
  // would silently corrupt 1-NN pruning.
  check::BoundCascade broken_lb = honest;
  broken_lb.lb_keogh = honest.cdtw * 1.5 + 1.0;
  EXPECT_FALSE(check::CheckBoundCascade(broken_lb, kTol, &error));
  EXPECT_NE(error.find("LB_Keogh"), std::string::npos) << error;

  // An "exact" banded distance below the unconstrained optimum.
  check::BoundCascade broken_cdtw = honest;
  broken_cdtw.cdtw = honest.dtw - 1.0 - honest.dtw * 0.5;
  EXPECT_FALSE(check::CheckBoundCascade(broken_cdtw, kTol, &error));

  // LB_Improved forged below LB_Keogh (violates the two-pass refinement).
  check::BoundCascade broken_improved = honest;
  broken_improved.lb_improved = honest.lb_keogh - 1.0;
  EXPECT_FALSE(check::CheckBoundCascade(broken_improved, kTol, &error));
  EXPECT_NE(error.find("LB_Improved"), std::string::npos) << error;
}

TEST(CheckOracleNegative, BrokenPathsAreRejected) {
  Rng rng(0xBADBAD);
  const std::vector<double> x = gen::RandomWalk(16, rng);
  const std::vector<double> y = gen::RandomWalk(16, rng);
  const DtwResult honest = Dtw(x, y);
  std::string error;
  ASSERT_TRUE(check::CheckPath(honest.path, 16, 16, &error)) << error;

  {  // Wrong start.
    std::vector<PathPoint> points = honest.path.points();
    points.front() = {1, 0};
    EXPECT_FALSE(check::CheckPath(WarpingPath(std::move(points)), 16, 16,
                                  &error));
  }
  {  // Wrong end.
    std::vector<PathPoint> points = honest.path.points();
    points.back() = {15, 14};
    EXPECT_FALSE(check::CheckPath(WarpingPath(std::move(points)), 16, 16,
                                  &error));
  }
  {  // A teleporting (discontinuous) step.
    std::vector<PathPoint> points = honest.path.points();
    points[points.size() / 2].j += 3;
    EXPECT_FALSE(check::CheckPath(WarpingPath(std::move(points)), 16, 16,
                                  &error));
  }
  {  // A backwards (non-monotone) step.
    std::vector<PathPoint> points = honest.path.points();
    std::swap(points[3], points[4]);
    EXPECT_FALSE(check::CheckPath(WarpingPath(std::move(points)), 16, 16,
                                  &error));
  }
  {  // Lying about the distance.
    EXPECT_FALSE(check::CheckPathCost(honest.path, x, y, CostKind::kSquared,
                                      honest.distance + 1.0, kTol, &error));
    EXPECT_NE(error.find("disagrees"), std::string::npos) << error;
  }
}

TEST(CheckOracleNegative, OutOfWindowPathIsRejected) {
  // A diagonal-only (band 0) window; the path detours off the diagonal.
  const WarpingWindow window = WarpingWindow::SakoeChiba(4, 4, 0);
  WarpingPath detour(std::vector<PathPoint>{
      {0, 0}, {0, 1}, {1, 1}, {2, 2}, {3, 3}});
  std::string error;
  EXPECT_FALSE(check::CheckPathInWindow(detour, window, &error));
  EXPECT_NE(error.find("escapes"), std::string::npos) << error;

  WarpingPath diagonal(std::vector<PathPoint>{
      {0, 0}, {1, 1}, {2, 2}, {3, 3}});
  EXPECT_TRUE(check::CheckPathInWindow(diagonal, window, &error)) << error;
}

}  // namespace
}  // namespace warp
