#include "warp/ts/paa.h"

#include <cmath>

#include "warp/common/assert.h"

namespace warp {

std::vector<double> Paa(std::span<const double> values, size_t num_segments) {
  WARP_CHECK(num_segments > 0);
  WARP_CHECK_MSG(num_segments <= values.size(),
                 "PAA cannot upsample; use ResampleLinear");
  const size_t n = values.size();
  if (num_segments == n) return {values.begin(), values.end()};

  // Each output segment covers n / num_segments input samples; fractional
  // boundary samples contribute proportionally to both adjacent segments.
  std::vector<double> out(num_segments, 0.0);
  const double span_width = static_cast<double>(n) / static_cast<double>(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    const double lo = static_cast<double>(s) * span_width;
    const double hi = lo + span_width;
    double acc = 0.0;
    size_t first = static_cast<size_t>(lo);
    for (size_t i = first; static_cast<double>(i) < hi && i < n; ++i) {
      const double seg_lo = std::max(lo, static_cast<double>(i));
      const double seg_hi = std::min(hi, static_cast<double>(i + 1));
      acc += values[i] * (seg_hi - seg_lo);
    }
    out[s] = acc / span_width;
  }
  return out;
}

std::vector<double> HalveByTwo(std::span<const double> values) {
  const size_t half = values.size() / 2;
  std::vector<double> out(half);
  for (size_t i = 0; i < half; ++i) {
    out[i] = 0.5 * (values[2 * i] + values[2 * i + 1]);
  }
  return out;
}

std::vector<double> ResampleLinear(std::span<const double> values,
                                   size_t new_length) {
  WARP_CHECK(!values.empty());
  WARP_CHECK(new_length > 0);
  const size_t n = values.size();
  std::vector<double> out(new_length);
  if (new_length == 1) {
    out[0] = values[0];
    return out;
  }
  if (n == 1) {
    out.assign(new_length, values[0]);
    return out;
  }
  const double step =
      static_cast<double>(n - 1) / static_cast<double>(new_length - 1);
  for (size_t i = 0; i < new_length; ++i) {
    const double pos = static_cast<double>(i) * step;
    size_t lo = static_cast<size_t>(pos);
    if (lo >= n - 1) lo = n - 2;
    const double frac = pos - static_cast<double>(lo);
    out[i] = values[lo] * (1.0 - frac) + values[lo + 1] * frac;
  }
  return out;
}

}  // namespace warp
