// Unit tests for WarpingWindow construction and invariants.

#include "warp/core/window.h"

#include <gtest/gtest.h>

namespace warp {
namespace {

TEST(WindowTest, FullWindowCoversEverything) {
  const WarpingWindow window = WarpingWindow::Full(4, 6);
  EXPECT_TRUE(window.IsValid());
  EXPECT_EQ(window.rows(), 4u);
  EXPECT_EQ(window.cols(), 6u);
  EXPECT_EQ(window.CellCount(), 24u);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_TRUE(window.Contains(i, j));
    }
  }
}

TEST(WindowTest, SakoeChibaSquareBand) {
  const WarpingWindow window = WarpingWindow::SakoeChiba(10, 10, 2);
  EXPECT_TRUE(window.IsValid());
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < 10; ++j) {
      const bool in_band =
          (i > j ? i - j : j - i) <= 2;
      EXPECT_EQ(window.Contains(i, j), in_band) << i << "," << j;
    }
  }
}

TEST(WindowTest, SakoeChibaZeroBandIsDiagonal) {
  const WarpingWindow window = WarpingWindow::SakoeChiba(8, 8, 0);
  EXPECT_TRUE(window.IsValid());
  EXPECT_EQ(window.CellCount(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(window.range(i).lo, i);
    EXPECT_EQ(window.range(i).hi, i);
  }
}

TEST(WindowTest, SakoeChibaUnequalLengthsStaysValid) {
  // Slope > 1 diagonals with a tiny band need the reachability patch.
  for (size_t n : {3u, 5u, 10u}) {
    for (size_t m : {7u, 29u, 100u}) {
      for (size_t band : {0u, 1u, 2u}) {
        const WarpingWindow window = WarpingWindow::SakoeChiba(n, m, band);
        std::string error;
        EXPECT_TRUE(window.Validate(&error))
            << "n=" << n << " m=" << m << " band=" << band << ": " << error;
      }
    }
  }
}

TEST(WindowTest, FromLowResPathCoversProjectedPath) {
  // A simple diagonal low-res path on a 10x10 grid, projected to 20x20.
  WarpingPath path;
  for (uint32_t k = 0; k < 10; ++k) path.Append(k, k);
  for (size_t radius : {0u, 1u, 3u}) {
    const WarpingWindow window =
        WarpingWindow::FromLowResPath(path, 20, 20, radius);
    std::string error;
    EXPECT_TRUE(window.Validate(&error)) << error;
    // Every projected 2x2 block of every path cell must be inside.
    for (uint32_t k = 0; k < 10; ++k) {
      EXPECT_TRUE(window.Contains(2 * k, 2 * k));
      EXPECT_TRUE(window.Contains(2 * k + 1, 2 * k + 1));
      EXPECT_TRUE(window.Contains(2 * k, 2 * k + 1));
      EXPECT_TRUE(window.Contains(2 * k + 1, 2 * k));
    }
  }
}

TEST(WindowTest, FromLowResPathRadiusExpands) {
  WarpingPath path;
  for (uint32_t k = 0; k < 16; ++k) path.Append(k, k);
  const WarpingWindow tight = WarpingWindow::FromLowResPath(path, 32, 32, 0);
  const WarpingWindow wide = WarpingWindow::FromLowResPath(path, 32, 32, 4);
  EXPECT_LT(tight.CellCount(), wide.CellCount());
  // Radius-4 expansion must contain the radius-0 window.
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_LE(wide.range(i).lo, tight.range(i).lo);
    EXPECT_GE(wide.range(i).hi, tight.range(i).hi);
  }
}

TEST(WindowTest, FromLowResPathOddLengths) {
  // Odd high-res lengths leave a trailing row/column that halve-by-two
  // dropped; the window must still be valid and cover both corners.
  WarpingPath path;
  for (uint32_t k = 0; k < 10; ++k) path.Append(k, k);
  const WarpingWindow window =
      WarpingWindow::FromLowResPath(path, 21, 21, 0);
  std::string error;
  EXPECT_TRUE(window.Validate(&error)) << error;
  EXPECT_TRUE(window.Contains(0, 0));
  EXPECT_TRUE(window.Contains(20, 20));
}

TEST(WindowTest, CellCountMatchesRanges) {
  const WarpingWindow window = WarpingWindow::SakoeChiba(100, 100, 7);
  uint64_t expected = 0;
  for (size_t i = 0; i < window.rows(); ++i) {
    expected += window.range(i).hi - window.range(i).lo + 1;
  }
  EXPECT_EQ(window.CellCount(), expected);
}

}  // namespace
}  // namespace warp
