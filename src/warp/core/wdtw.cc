#include "warp/core/wdtw.h"

#include <cmath>
#include <vector>

#include "warp/common/assert.h"
#include "warp/core/dp_engine.h"

namespace warp {

std::vector<double> MakeWdtwWeights(size_t n, double g, double w_max) {
  WARP_CHECK(n > 0);
  WARP_CHECK(w_max > 0.0);
  std::vector<double> weights(n);
  const double mid = static_cast<double>(n) / 2.0;
  for (size_t d = 0; d < n; ++d) {
    weights[d] =
        w_max / (1.0 + std::exp(-g * (static_cast<double>(d) - mid)));
  }
  return weights;
}

double WdtwDistance(std::span<const double> x, std::span<const double> y,
                    double g, size_t band, CostKind cost,
                    DtwWorkspace* workspace) {
  WARP_CHECK_MSG(x.size() == y.size(),
                 "WDTW requires equal lengths (phase-difference weights)");
  WARP_CHECK(!x.empty());
  const std::vector<double> weights = MakeWdtwWeights(x.size(), g);

  // The weighted local cost is a per-cell scale on top of the base cost;
  // the DP itself is the engine's MinPlus recurrence over the square
  // Sakoe–Chiba band (equal lengths, so the integer fast path applies).
  return WithCost(cost, [&](auto c) {
    struct WeightedCost {
      const double* x;
      const double* y;
      const double* weights;
      decltype(c) base;
      double operator()(size_t i, size_t j) const {
        const size_t phase = i > j ? i - j : j - i;
        return weights[phase] * base(x[i], y[j]);
      }
    };
    const WeightedCost cell{x.data(), y.data(), weights.data(), c};
    return dp::BandedTwoRowEngine(x.size(), y.size(), band,
                                  dp::MinPlusPolicy<WeightedCost>{cell},
                                  dp::kInf, workspace);
  });
}

}  // namespace warp
