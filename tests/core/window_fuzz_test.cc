// Fuzz-style property tests for window construction and the windowed DTW
// engine: random monotone paths, random shapes, random radii — the
// invariants must hold for all of them, and the optimized engine must
// agree with the naive full-matrix reference on every window it accepts.

#include <gtest/gtest.h>

#include "testing/reference_impls.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/window.h"
#include "warp/gen/random_walk.h"

namespace warp {
namespace {

// A uniformly random valid warping path on an (n, m) grid.
WarpingPath RandomPath(size_t n, size_t m, Rng& rng) {
  WarpingPath path;
  uint32_t i = 0;
  uint32_t j = 0;
  path.Append(0, 0);
  while (i + 1 < n || j + 1 < m) {
    const bool can_down = i + 1 < n;
    const bool can_right = j + 1 < m;
    if (can_down && can_right) {
      switch (rng.UniformInt(3)) {
        case 0:
          ++i;
          break;
        case 1:
          ++j;
          break;
        default:
          ++i;
          ++j;
          break;
      }
    } else if (can_down) {
      ++i;
    } else {
      ++j;
    }
    path.Append(i, j);
  }
  return path;
}

TEST(WindowFuzzTest, RandomPathsAreValid) {
  Rng rng(211);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + rng.UniformInt(40);
    const size_t m = 1 + rng.UniformInt(40);
    const WarpingPath path = RandomPath(n, m, rng);
    std::string error;
    ASSERT_TRUE(path.Validate(n, m, &error))
        << "n=" << n << " m=" << m << ": " << error;
  }
}

TEST(WindowFuzzTest, FromLowResPathAlwaysValid) {
  Rng rng(212);
  for (int round = 0; round < 100; ++round) {
    // High-res shape; low-res is the floor-half (as in FastDTW).
    const size_t n = 2 + rng.UniformInt(60);
    const size_t m = 2 + rng.UniformInt(60);
    const size_t radius = rng.UniformInt(6);
    const WarpingPath low = RandomPath(n / 2, m / 2, rng);
    const WarpingWindow window =
        WarpingWindow::FromLowResPath(low, n, m, radius);
    std::string error;
    ASSERT_TRUE(window.Validate(&error))
        << "n=" << n << " m=" << m << " r=" << radius << ": " << error;

    // The projected 2x2 block of every low-res cell is covered.
    for (const PathPoint& p : low.points()) {
      for (uint32_t di = 0; di < 2; ++di) {
        for (uint32_t dj = 0; dj < 2; ++dj) {
          const size_t hi = 2 * p.i + di;
          const size_t hj = 2 * p.j + dj;
          if (hi < n && hj < m) {
            EXPECT_TRUE(window.Contains(hi, hj))
                << "cell (" << hi << "," << hj << ") missing";
          }
        }
      }
    }
  }
}

TEST(WindowFuzzTest, WindowedEngineMatchesNaiveReference) {
  Rng rng(213);
  for (int round = 0; round < 60; ++round) {
    const size_t n = 2 + rng.UniformInt(30);
    const size_t m = 2 + rng.UniformInt(30);
    const size_t radius = rng.UniformInt(4);
    const WarpingPath low = RandomPath(n / 2, m / 2, rng);
    const WarpingWindow window =
        WarpingWindow::FromLowResPath(low, n, m, radius);

    const std::vector<double> x = gen::RandomWalk(n, rng);
    const std::vector<double> y = gen::RandomWalk(m, rng);
    const double reference = testing::RefWindowedDtw(x, y, window);

    // The path engine agrees, and its path respects the window.
    const DtwResult with_path = WindowedDtw(x, y, window);
    ASSERT_NEAR(with_path.distance, reference, 1e-9)
        << "n=" << n << " m=" << m << " r=" << radius;
    for (const PathPoint& p : with_path.path.points()) {
      ASSERT_TRUE(window.Contains(p.i, p.j));
    }
  }
}

TEST(WindowFuzzTest, FastDtwOnRandomShapesNeverCrashesNorUndershoots) {
  Rng rng(214);
  for (int round = 0; round < 40; ++round) {
    const size_t n = 2 + rng.UniformInt(120);
    const size_t m = 2 + rng.UniformInt(120);
    const size_t radius = rng.UniformInt(8);
    const std::vector<double> x = gen::RandomWalk(n, rng);
    const std::vector<double> y = gen::RandomWalk(m, rng);
    const DtwResult fast = FastDtw(x, y, radius);
    ASSERT_TRUE(fast.path.IsValid(n, m))
        << "n=" << n << " m=" << m << " r=" << radius;
    ASSERT_GE(fast.distance, DtwDistance(x, y) - 1e-9);
  }
}

TEST(WindowFuzzTest, SakoeChibaRandomShapesMatchWindowedEngine) {
  Rng rng(215);
  for (int round = 0; round < 60; ++round) {
    const size_t n = 1 + rng.UniformInt(50);
    const size_t m = 1 + rng.UniformInt(50);
    const size_t band = rng.UniformInt(12);
    const std::vector<double> x = gen::RandomWalk(n, rng);
    const std::vector<double> y = gen::RandomWalk(m, rng);
    const WarpingWindow window = WarpingWindow::SakoeChiba(n, m, band);
    ASSERT_NEAR(CdtwDistance(x, y, band),
                testing::RefWindowedDtw(x, y, window), 1e-9)
        << "n=" << n << " m=" << m << " band=" << band;
  }
}

}  // namespace
}  // namespace warp
