// Independent reference implementations for differential testing.
//
// These are deliberately naive (full O(n*m) matrices, no rolling arrays,
// no window tricks; printf and strtod for numbers) so they share no code —
// and therefore no bugs — with the optimized kernels in warp/core and the
// wire formatter in warp/obs.

#ifndef WARP_TESTS_TESTING_REFERENCE_IMPLS_H_
#define WARP_TESTS_TESTING_REFERENCE_IMPLS_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "warp/common/cost.h"
#include "warp/core/window.h"

namespace warp {
namespace testing {

inline double RefCost(double a, double b, CostKind kind) {
  return kind == CostKind::kAbsolute ? std::fabs(a - b) : (a - b) * (a - b);
}

// Full-matrix DTW restricted to an arbitrary window.
inline double RefWindowedDtw(std::span<const double> x,
                             std::span<const double> y,
                             const WarpingWindow& window,
                             CostKind kind = CostKind::kSquared) {
  const size_t n = x.size();
  const size_t m = y.size();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> d(n + 1, std::vector<double>(m + 1, inf));
  d[0][0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      if (!window.Contains(i - 1, j - 1)) continue;
      const double best =
          std::min({d[i - 1][j - 1], d[i - 1][j], d[i][j - 1]});
      d[i][j] = best + RefCost(x[i - 1], y[j - 1], kind);
    }
  }
  return d[n][m];
}

inline double RefDtw(std::span<const double> x, std::span<const double> y,
                     CostKind kind = CostKind::kSquared) {
  return RefWindowedDtw(x, y, WarpingWindow::Full(x.size(), y.size()), kind);
}

inline double RefCdtw(std::span<const double> x, std::span<const double> y,
                      size_t band, CostKind kind = CostKind::kSquared) {
  return RefWindowedDtw(
      x, y, WarpingWindow::SakoeChiba(x.size(), y.size(), band), kind);
}

// The wire's double rule (JsonWriter::FormatDouble): the first of %.15g,
// %.16g and %.17g that strtod reads back to the same value; "null" for
// NaN and infinities.
inline std::string RefFormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

}  // namespace testing
}  // namespace warp

#endif  // WARP_TESTS_TESTING_REFERENCE_IMPLS_H_
