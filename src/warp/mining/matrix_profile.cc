#include "warp/mining/matrix_profile.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "warp/common/assert.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kStdEpsilon = 1e-10;

}  // namespace

MatrixProfile ComputeMatrixProfile(std::span<const double> series, size_t m) {
  WARP_CHECK(m >= 2);
  const size_t exclusion = m / 2;
  WARP_CHECK_MSG(series.size() >= m + exclusion + 1,
                 "series too short for a non-trivial self-join");
  const size_t num_windows = series.size() - m + 1;

  // Per-window mean and stddev from prefix sums.
  std::vector<double> mean(num_windows);
  std::vector<double> stddev(num_windows);
  {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (size_t t = 0; t < m; ++t) {
      sum += series[t];
      sum_sq += series[t] * series[t];
    }
    for (size_t i = 0;; ++i) {
      const double mu = sum / static_cast<double>(m);
      const double var = sum_sq / static_cast<double>(m) - mu * mu;
      mean[i] = mu;
      stddev[i] = var > 0.0 ? std::sqrt(var) : 0.0;
      if (i + 1 >= num_windows) break;
      sum += series[i + m] - series[i];
      sum_sq += series[i + m] * series[i + m] - series[i] * series[i];
    }
  }

  MatrixProfile result;
  result.window = m;
  result.profile.assign(num_windows, kInf);
  result.index.assign(num_windows, 0);

  auto update = [&](size_t i, size_t j, double distance) {
    if (distance < result.profile[i]) {
      result.profile[i] = distance;
      result.index[i] = j;
    }
    if (distance < result.profile[j]) {
      result.profile[j] = distance;
      result.index[j] = i;
    }
  };

  const double dm = static_cast<double>(m);
  // One pass per diagonal k = j - i, skipping the exclusion zone.
  for (size_t k = exclusion + 1; k < num_windows; ++k) {
    // QT for the diagonal's first cell (0, k).
    double qt = 0.0;
    for (size_t t = 0; t < m; ++t) qt += series[t] * series[t + k];
    for (size_t i = 0;; ++i) {
      const size_t j = i + k;
      double distance;
      const bool flat_i = stddev[i] < kStdEpsilon;
      const bool flat_j = stddev[j] < kStdEpsilon;
      if (flat_i || flat_j) {
        distance = (flat_i && flat_j) ? 0.0 : 2.0 * dm;
      } else {
        double corr = (qt - dm * mean[i] * mean[j]) /
                      (dm * stddev[i] * stddev[j]);
        corr = std::clamp(corr, -1.0, 1.0);
        distance = 2.0 * dm * (1.0 - corr);
      }
      update(i, j, distance);
      if (j + 1 >= num_windows) break;
      qt += series[i + m] * series[j + m] - series[i] * series[j];
    }
  }
  return result;
}

ProfileDiscord TopDiscord(const MatrixProfile& profile) {
  WARP_CHECK(!profile.profile.empty());
  ProfileDiscord discord;
  discord.nn_distance = -kInf;
  for (size_t i = 0; i < profile.size(); ++i) {
    if (profile.profile[i] > discord.nn_distance &&
        profile.profile[i] < kInf) {
      discord.nn_distance = profile.profile[i];
      discord.position = i;
    }
  }
  return discord;
}

}  // namespace warp
