// Contract (death) tests: WARP_CHECK guards on public APIs must fire on
// misuse rather than corrupt memory or return garbage.

#include <gtest/gtest.h>

#include "warp/core/distance_matrix.h"
#include "warp/core/dtw.h"
#include "warp/core/window.h"
#include "warp/mining/anomaly.h"
#include "warp/mining/hierarchical_clustering.h"
#include "warp/ts/paa.h"

namespace warp {
namespace {

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, DtwRejectsEmptySeries) {
  const std::vector<double> empty;
  const std::vector<double> x = {1.0, 2.0};
  EXPECT_DEATH(DtwDistance(empty, x), "CHECK failed");
  EXPECT_DEATH(CdtwDistance(x, empty, 1), "CHECK failed");
}

TEST(ContractsDeathTest, EuclideanRejectsLengthMismatch) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_DEATH(EuclideanDistance(a, b), "equal lengths");
}

TEST(ContractsDeathTest, WindowedDtwRejectsShapeMismatch) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  const WarpingWindow window = WarpingWindow::Full(2, 3);
  EXPECT_DEATH(WindowedDtw(a, b, window), "CHECK failed");
}

TEST(ContractsDeathTest, PaaRejectsUpsampling) {
  const std::vector<double> x = {1.0, 2.0};
  EXPECT_DEATH(Paa(x, 5), "cannot upsample");
}

TEST(ContractsDeathTest, DistanceMatrixRejectsDiagonalWrite) {
  DistanceMatrix matrix(3);
  EXPECT_DEATH(matrix.set(1, 1, 2.0), "diagonal");
}

TEST(ContractsDeathTest, DiscordRejectsTooShortSeries) {
  const std::vector<double> series(30, 0.0);
  EXPECT_DEATH(FindTopDiscord(series, 20, 0), "two non-overlapping");
}

TEST(ContractsDeathTest, WindowRejectsZeroShape) {
  EXPECT_DEATH(WarpingWindow::Full(0, 5), "CHECK failed");
  EXPECT_DEATH(WarpingWindow::SakoeChiba(5, 0, 1), "CHECK failed");
}

TEST(ContractsDeathTest, DendrogramRejectsWrongMergeCount) {
  EXPECT_DEATH(Dendrogram(3, {}), "exactly n-1 merges");
}

}  // namespace
}  // namespace warp
