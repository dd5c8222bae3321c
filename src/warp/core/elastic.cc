#include "warp/core/elastic.h"

#include "warp/common/assert.h"
#include "warp/core/dp_engine.h"

namespace warp {

size_t LcssLength(std::span<const double> x, std::span<const double> y,
                  double epsilon, size_t band, DtwWorkspace* workspace) {
  WARP_CHECK(!x.empty() && !y.empty());
  WARP_CHECK(epsilon >= 0.0);

  // Max-DP over match counts, run in the engine's double rows (counts are
  // small non-negative integers, exact in double). Cells outside the band
  // stay at the running maximum of their row prefix (standard banded-LCSS
  // semantics: matches are only allowed inside the band, carries are
  // free), so the policy gates the band and the rows span every column.
  const double length = dp::BandedTwoRowEngine(
      x.size(), y.size(), std::max(x.size(), y.size()),
      dp::LcssPolicy{x.data(), y.data(), epsilon, band}, dp::kInf, workspace);
  return static_cast<size_t>(length);
}

double LcssDistance(std::span<const double> x, std::span<const double> y,
                    double epsilon, size_t band, DtwWorkspace* workspace) {
  const size_t lcss = LcssLength(x, y, epsilon, band, workspace);
  const size_t shortest = std::min(x.size(), y.size());
  return 1.0 - static_cast<double>(lcss) / static_cast<double>(shortest);
}

double ErpDistance(std::span<const double> x, std::span<const double> y,
                   double gap_value, DtwWorkspace* workspace) {
  WARP_CHECK(!x.empty() && !y.empty());
  // Boundaries are gap prefix sums — D(i, -1) accumulates |x[0..i] - g|
  // across rows inside the (stateful) policy, D(-1, j) is the top-row
  // prefix of |y[0..j] - g|; interior is the three-way edit recurrence on
  // L1 costs. The SIMD wavefront injects the same prefixes through its
  // boundary sentinels, so both paths agree bitwise (docs/SIMD.md).
  return dp::BandedTwoRowEngine(
      x.size(), y.size(), std::max(x.size(), y.size()),
      dp::ErpPolicy{x.data(), y.data(), gap_value}, dp::kInf, workspace);
}

double MsmDistance(std::span<const double> x, std::span<const double> y,
                   double split_merge_cost, DtwWorkspace* workspace) {
  WARP_CHECK(!x.empty() && !y.empty());
  WARP_CHECK(split_merge_cost >= 0.0);
  return dp::BandedTwoRowEngine(
      x.size(), y.size(), std::max(x.size(), y.size()),
      dp::MsmPolicy{x.data(), y.data(), split_merge_cost}, dp::kInf,
      workspace);
}

}  // namespace warp
