#include "warp/mining/similarity_search.h"

#include <limits>
#include <vector>

#include "warp/common/assert.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/ts/znorm.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Z-normalizes haystack[pos, pos+m) into `out` given precomputed window
// mean/stddev (just-in-time normalization: no normalized copy of the
// haystack ever exists).
void NormalizeWindow(std::span<const double> haystack, size_t pos, size_t m,
                     double mean, double stddev, std::vector<double>* out) {
  out->resize(m);
  if (stddev < 1e-12) {
    out->assign(m, 0.0);
    return;
  }
  const double inv = 1.0 / stddev;
  for (size_t i = 0; i < m; ++i) {
    (*out)[i] = (haystack[pos + i] - mean) * inv;
  }
}

}  // namespace

SubsequenceMatch FindBestMatch(std::span<const double> haystack,
                               std::span<const double> query, size_t band,
                               CostKind cost, SearchStats* stats) {
  WARP_CHECK(!query.empty());
  WARP_CHECK_MSG(haystack.size() >= query.size(),
                 "haystack shorter than query");
  const size_t m = query.size();
  const size_t num_windows = haystack.size() - m + 1;

  const std::vector<double> q = ZNormalized(query);
  const Cascade cascade(q, band, cost, stats);

  // Running sums over the sliding window for O(1) mean/stddev per step.
  RunningMeanStd running(m);
  for (size_t i = 0; i < m; ++i) running.Push(haystack[i]);

  Stopwatch watch;
  SubsequenceMatch best;
  best.distance = kInf;
  std::vector<double> window;
  DtwWorkspace buffer;

  for (size_t pos = 0; pos < num_windows; ++pos) {
    if (pos > 0) {
      running.Pop(haystack[pos - 1]);
      running.Push(haystack[pos + m - 1]);
    }
    const double mean = running.mean();
    const double stddev = running.stddev();
    const double inv = stddev > 1e-12 ? 1.0 / stddev : 0.0;

    // LB_Kim on the window's endpoints, normalized on the fly, before the
    // whole window is.
    const double first = (haystack[pos] - mean) * inv;
    const double last = (haystack[pos + m - 1] - mean) * inv;
    if (cascade.KilledByKim(cascade.Kim(first, last), best.distance)) {
      continue;
    }
    NormalizeWindow(haystack, pos, m, mean, stddev, &window);
    const double d = cascade.Distance(window, best.distance, &buffer);
    if (d < best.distance) {
      best.distance = d;
      best.position = pos;
    }
  }
  if (stats != nullptr) {
    stats->windows += num_windows;
    stats->seconds = watch.ElapsedSeconds();
  }
  return best;
}

SubsequenceMatch FindBestMatchNaive(std::span<const double> haystack,
                                    std::span<const double> query,
                                    size_t band, CostKind cost,
                                    SearchStats* stats) {
  WARP_CHECK(!query.empty());
  WARP_CHECK_MSG(haystack.size() >= query.size(),
                 "haystack shorter than query");
  const size_t m = query.size();
  const std::vector<double> q = ZNormalized(query);

  Stopwatch watch;
  SubsequenceMatch best;
  best.distance = kInf;
  std::vector<double> window;
  DtwWorkspace buffer;
  for (size_t pos = 0; pos + m <= haystack.size(); ++pos) {
    if (stats != nullptr) {
      ++stats->windows;
      ++stats->full_dtw;
    }
    window.assign(haystack.begin() + pos, haystack.begin() + pos + m);
    ZNormalizeInPlace(window);
    const double d = CdtwDistance(q, window, band, cost, &buffer);
    if (d < best.distance) {
      best.distance = d;
      best.position = pos;
    }
  }
  if (stats != nullptr) stats->seconds = watch.ElapsedSeconds();
  return best;
}

}  // namespace warp
