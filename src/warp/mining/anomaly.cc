#include "warp/mining/anomaly.h"

#include <limits>
#include <vector>

#include "warp/common/assert.h"
#include "warp/core/dtw.h"
#include "warp/ts/znorm.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Discord FindTopDiscord(std::span<const double> series, size_t m, size_t band,
                       CostKind cost, size_t stride, DiscordStats* stats) {
  WARP_CHECK(m >= 2);
  WARP_CHECK(stride >= 1);
  WARP_CHECK_MSG(series.size() >= 2 * m,
                 "series must contain at least two non-overlapping windows");
  const size_t num_windows = series.size() - m + 1;

  // Materialize z-normalized windows once; discords are defined on
  // normalized subsequences (shape anomalies, not level anomalies).
  std::vector<std::vector<double>> windows;
  windows.reserve((num_windows + stride - 1) / stride);
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < num_windows; pos += stride) {
    windows.push_back(
        ZNormalized(series.subspan(pos, m)));
    positions.push_back(pos);
  }

  Discord best;
  best.nn_distance = -1.0;
  DtwWorkspace buffer;
  for (size_t a = 0; a < windows.size(); ++a) {
    if (stats != nullptr) ++stats->candidates;
    double nn = kInf;
    size_t nn_index = a;
    bool abandoned = false;
    for (size_t b = 0; b < windows.size(); ++b) {
      const size_t gap = positions[a] > positions[b]
                             ? positions[a] - positions[b]
                             : positions[b] - positions[a];
      if (gap < m) continue;  // Self-match exclusion.
      if (stats != nullptr) ++stats->distance_calls;
      // Early-abandon at the candidate's current NN bound: any tighter
      // neighbor only lowers nn further.
      const double d = CdtwDistanceAbandoning(windows[a], windows[b], band,
                                              nn, cost, &buffer);
      if (d < nn) {
        nn = d;
        nn_index = b;
      }
      // If this candidate's NN is already closer than the best discord's,
      // it cannot be the discord.
      if (nn <= best.nn_distance) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) {
      if (stats != nullptr) ++stats->abandoned_candidates;
      continue;
    }
    if (nn > best.nn_distance && nn < kInf) {
      best.nn_distance = nn;
      best.position = positions[a];
      best.nn_position = positions[nn_index];
    }
  }
  WARP_CHECK_MSG(best.nn_distance >= 0.0, "no discord candidate evaluated");
  return best;
}

Motif FindTopMotif(std::span<const double> series, size_t m, size_t band,
                   CostKind cost, size_t stride, DiscordStats* stats) {
  WARP_CHECK(m >= 2);
  WARP_CHECK(stride >= 1);
  WARP_CHECK_MSG(series.size() >= 2 * m,
                 "series must contain at least two non-overlapping windows");
  const size_t num_windows = series.size() - m + 1;

  std::vector<std::vector<double>> windows;
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < num_windows; pos += stride) {
    windows.push_back(ZNormalized(series.subspan(pos, m)));
    positions.push_back(pos);
  }

  Motif best;
  best.distance = kInf;
  DtwWorkspace buffer;
  for (size_t a = 0; a < windows.size(); ++a) {
    if (stats != nullptr) ++stats->candidates;
    for (size_t b = a + 1; b < windows.size(); ++b) {
      if (positions[b] - positions[a] < m) continue;  // Overlap exclusion.
      if (stats != nullptr) ++stats->distance_calls;
      // Early-abandon above the best pair found so far.
      const double d = CdtwDistanceAbandoning(windows[a], windows[b], band,
                                              best.distance, cost, &buffer);
      if (d < best.distance) {
        best.distance = d;
        best.position_a = positions[a];
        best.position_b = positions[b];
      }
    }
  }
  WARP_CHECK_MSG(best.distance < kInf, "no motif pair evaluated");
  return best;
}

}  // namespace warp
