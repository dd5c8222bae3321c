#include "warp/core/adtw.h"

#include "warp/common/assert.h"
#include "warp/core/dp_engine.h"

namespace warp {

double AdtwDistance(std::span<const double> x, std::span<const double> y,
                    double omega, CostKind cost, DtwWorkspace* workspace) {
  WARP_CHECK(!x.empty() && !y.empty());
  WARP_CHECK(omega >= 0.0);

  // The engine's ADTW policy: same two-row layout as DTW (dp[j+1] =
  // D(i, j)), with the amercement added on the two non-diagonal
  // predecessors. Unconstrained, so the band is max(n, m) and every row
  // spans all columns — which is exactly the geometry the SIMD wavefront
  // handles; results are bitwise identical either way (docs/SIMD.md).
  return WithCost(cost, [&](auto c) {
    return dp::BandedTwoRowEngine(
        x.size(), y.size(), std::max(x.size(), y.size()),
        dp::AdtwPolicy<dp::SeriesCellCost<decltype(c)>>{
            {x.data(), y.data(), c}, omega},
        dp::kInf, workspace);
  });
}

double SuggestAdtwOmega(std::span<const double> x, std::span<const double> y,
                        double ratio, CostKind cost) {
  WARP_CHECK(ratio >= 0.0);
  WARP_CHECK_MSG(x.size() == y.size(),
                 "omega suggestion uses the Euclidean per-step cost");
  const double per_step = EuclideanDistance(x, y, cost) /
                          static_cast<double>(x.size());
  return ratio * per_step;
}

}  // namespace warp
