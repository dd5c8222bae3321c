#include "warp/core/ddtw.h"

#include "warp/common/assert.h"

namespace warp {

std::vector<double> DerivativeTransform(std::span<const double> values) {
  WARP_CHECK_MSG(values.size() >= 3,
                 "derivative transform needs at least 3 points");
  const size_t n = values.size();
  std::vector<double> derivative(n);
  for (size_t i = 1; i + 1 < n; ++i) {
    derivative[i] =
        ((values[i] - values[i - 1]) + (values[i + 1] - values[i - 1]) / 2.0) /
        2.0;
  }
  derivative[0] = derivative[1];
  derivative[n - 1] = derivative[n - 2];
  return derivative;
}

double DdtwDistance(std::span<const double> x, std::span<const double> y,
                    size_t band, CostKind cost, DtwWorkspace* workspace) {
  const std::vector<double> dx = DerivativeTransform(x);
  const std::vector<double> dy = DerivativeTransform(y);
  return CdtwDistance(dx, dy, band, cost, workspace);
}

}  // namespace warp
