#include "warp/ts/time_series.h"

#include <algorithm>
#include <cmath>

#include "warp/common/assert.h"

namespace warp {

double TimeSeries::Min() const {
  WARP_CHECK(!empty());
  return *std::min_element(values_.begin(), values_.end());
}

double TimeSeries::Max() const {
  WARP_CHECK(!empty());
  return *std::max_element(values_.begin(), values_.end());
}

double TimeSeries::Mean() const {
  WARP_CHECK(!empty());
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double TimeSeries::StdDev() const {
  WARP_CHECK(!empty());
  const double mean = Mean();
  double sum_sq = 0.0;
  for (double v : values_) sum_sq += (v - mean) * (v - mean);
  return std::sqrt(sum_sq / static_cast<double>(values_.size()));
}

}  // namespace warp
