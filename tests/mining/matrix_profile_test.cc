// Unit and differential tests for the matrix profile.

#include "warp/mining/matrix_profile.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "warp/core/dtw.h"
#include "warp/gen/random_walk.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace {

// Brute-force reference: squared z-normalized ED with the same exclusion
// zone.
MatrixProfile ReferenceProfile(std::span<const double> series, size_t m) {
  const size_t exclusion = m / 2;
  const size_t num_windows = series.size() - m + 1;
  MatrixProfile result;
  result.window = m;
  result.profile.assign(num_windows,
                        std::numeric_limits<double>::infinity());
  result.index.assign(num_windows, 0);
  for (size_t i = 0; i < num_windows; ++i) {
    const std::vector<double> a = ZNormalized(series.subspan(i, m));
    for (size_t j = 0; j < num_windows; ++j) {
      const size_t gap = i > j ? i - j : j - i;
      if (gap <= exclusion) continue;
      const std::vector<double> b = ZNormalized(series.subspan(j, m));
      const double d = EuclideanDistance(a, b);
      if (d < result.profile[i]) {
        result.profile[i] = d;
        result.index[i] = j;
      }
    }
  }
  return result;
}

TEST(MatrixProfileTest, MatchesBruteForceReference) {
  Rng rng(231);
  for (int round = 0; round < 5; ++round) {
    const std::vector<double> series = gen::RandomWalk(200, rng);
    for (size_t m : {8u, 16u, 32u}) {
      const MatrixProfile fast = ComputeMatrixProfile(series, m);
      const MatrixProfile reference = ReferenceProfile(series, m);
      ASSERT_EQ(fast.size(), reference.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_NEAR(fast.profile[i], reference.profile[i], 1e-6)
            << "m=" << m << " i=" << i;
      }
    }
  }
}

TEST(MatrixProfileTest, PlantedMotifIsTheMinimum) {
  Rng rng(232);
  std::vector<double> series = gen::RandomWalk(600, rng);
  std::vector<double> pattern(50);
  for (size_t t = 0; t < pattern.size(); ++t) {
    pattern[t] = 5.0 * std::sin(2.0 * M_PI * static_cast<double>(t) / 25.0);
  }
  for (size_t k = 0; k < pattern.size(); ++k) {
    series[100 + k] = pattern[k];
    series[400 + k] = 2.0 * pattern[k] + 1.0;  // Scaled copy.
  }
  const MatrixProfile profile = ComputeMatrixProfile(series, 50);
  // The motif pair is the profile's first minimum and its neighbor.
  const size_t a = static_cast<size_t>(
      std::min_element(profile.profile.begin(), profile.profile.end()) -
      profile.profile.begin());
  const size_t b = profile.index[a];
  EXPECT_NEAR(static_cast<double>(std::min(a, b)), 100.0, 3.0);
  EXPECT_NEAR(static_cast<double>(std::max(a, b)), 400.0, 3.0);
  EXPECT_LT(profile.profile[a], 0.5);
}

TEST(MatrixProfileTest, PlantedDiscordIsTheMaximum) {
  // Periodic signal with one corrupted cycle.
  std::vector<double> series(800);
  for (size_t t = 0; t < series.size(); ++t) {
    series[t] = std::sin(2.0 * M_PI * static_cast<double>(t) / 40.0);
  }
  for (size_t t = 500; t < 540; ++t) {
    series[t] = (t % 5 == 0) ? 1.5 : -0.2;
  }
  const MatrixProfile profile = ComputeMatrixProfile(series, 40);
  const ProfileDiscord discord = TopDiscord(profile);
  EXPECT_GE(discord.position + 40, 500u);
  EXPECT_LE(discord.position, 540u);
}

TEST(MatrixProfileTest, SymmetryOfNearestNeighborDistances) {
  // profile[i] <= d(i, index[i]) by construction and the relation is
  // consistent: d(i, index[i]) equals profile[i].
  Rng rng(233);
  const std::vector<double> series = gen::RandomWalk(300, rng);
  const size_t m = 20;
  const MatrixProfile profile = ComputeMatrixProfile(series, m);
  for (size_t i = 0; i < profile.size(); i += 13) {
    const std::vector<double> a =
        ZNormalized(std::span<const double>(series).subspan(i, m));
    const std::vector<double> b = ZNormalized(
        std::span<const double>(series).subspan(profile.index[i], m));
    EXPECT_NEAR(EuclideanDistance(a, b), profile.profile[i], 1e-6);
  }
}

TEST(MatrixProfileTest, ConstantRegionsHandled) {
  // A series with a long flat stretch must not produce NaNs.
  std::vector<double> series(300, 1.0);
  Rng rng(234);
  for (size_t t = 150; t < 300; ++t) series[t] = rng.Gaussian();
  const MatrixProfile profile = ComputeMatrixProfile(series, 20);
  for (double v : profile.profile) {
    EXPECT_FALSE(std::isnan(v));
  }
  // Two flat windows match perfectly.
  EXPECT_NEAR(profile.profile[10], 0.0, 1e-12);
}

TEST(MatrixProfileTest, ExclusionZoneRespected) {
  Rng rng(235);
  const std::vector<double> series = gen::RandomWalk(250, rng);
  const size_t m = 24;
  const MatrixProfile profile = ComputeMatrixProfile(series, m);
  for (size_t i = 0; i < profile.size(); ++i) {
    const size_t gap = i > profile.index[i] ? i - profile.index[i]
                                            : profile.index[i] - i;
    EXPECT_GT(gap, m / 2) << "i=" << i;
  }
}

}  // namespace
}  // namespace warp
