#include "warp/core/window.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "warp/common/assert.h"

namespace warp {

namespace {

uint32_t U32(size_t v) { return static_cast<uint32_t>(v); }

}  // namespace

WarpingWindow WarpingWindow::Full(size_t n, size_t m) {
  WARP_CHECK(n > 0 && m > 0);
  std::vector<ColRange> ranges(n, ColRange{0, U32(m - 1)});
  return WarpingWindow(m, std::move(ranges));
}

WarpingWindow WarpingWindow::SakoeChiba(size_t n, size_t m, size_t band) {
  WARP_CHECK(n > 0 && m > 0);
  std::vector<ColRange> ranges(n);
  const double slope =
      n > 1 ? static_cast<double>(m - 1) / static_cast<double>(n - 1) : 0.0;
  const int64_t b = static_cast<int64_t>(band);
  const int64_t last_col = static_cast<int64_t>(m) - 1;
  for (size_t i = 0; i < n; ++i) {
    const int64_t center =
        static_cast<int64_t>(std::llround(static_cast<double>(i) * slope));
    const int64_t lo = std::clamp<int64_t>(center - b, 0, last_col);
    const int64_t hi = std::clamp<int64_t>(center + b, 0, last_col);
    ranges[i] = {U32(static_cast<size_t>(lo)), U32(static_cast<size_t>(hi))};
  }
  WarpingWindow window(m, std::move(ranges));
  window.Canonicalize();
  return window;
}

WarpingWindow WarpingWindow::FromLowResPath(const WarpingPath& low_res_path,
                                            size_t n, size_t m,
                                            size_t radius) {
  WARP_CHECK_MSG(n >= 2 && m >= 2,
                 "high-resolution lengths must be at least 2");
  const size_t n2 = n / 2;
  const size_t m2 = m / 2;
  const auto low_ranges = low_res_path.PerRowColumnRanges(n2);
  (void)m2;  // Low-res column bounds are implied by the path's validity.

  // Expand by `radius` in low-resolution coordinates. Because the per-row
  // ranges of a valid path are monotone, the union over rows [i-r, i+r] of
  // [lo-r, hi+r] is exactly [lo(i-r)-r, hi(i+r)+r]. Values may leave the
  // low-res matrix here; they are clamped after projection, matching the
  // reference implementation (which filters out-of-range cells late).
  const int64_t r = static_cast<int64_t>(radius);
  std::vector<int64_t> expanded_lo(n2);
  std::vector<int64_t> expanded_hi(n2);
  for (size_t i = 0; i < n2; ++i) {
    const size_t i_lo = i >= radius ? i - radius : 0;
    const size_t i_hi = std::min(i + radius, n2 - 1);
    expanded_lo[i] = static_cast<int64_t>(low_ranges[i_lo].first) - r;
    expanded_hi[i] = static_cast<int64_t>(low_ranges[i_hi].second) + r;
  }

  // Project each low-resolution cell (i, j) onto the 2x2 block
  // {2i, 2i+1} x {2j, 2j+1} at full resolution. A trailing odd row/column
  // (dropped by the halve-by-two coarsening) inherits the last low-res
  // row's range; Canonicalize then guarantees corner coverage.
  const int64_t last_col = static_cast<int64_t>(m) - 1;
  std::vector<ColRange> ranges(n);
  for (size_t h = 0; h < n; ++h) {
    const size_t il = std::min(h / 2, n2 - 1);
    const int64_t lo = std::clamp<int64_t>(2 * expanded_lo[il], 0, last_col);
    const int64_t hi =
        std::clamp<int64_t>(2 * expanded_hi[il] + 1, 0, last_col);
    ranges[h] = {U32(static_cast<size_t>(lo)), U32(static_cast<size_t>(hi))};
  }
  WarpingWindow window(m, std::move(ranges));
  window.Canonicalize();
  return window;
}

uint64_t WarpingWindow::CellCount() const {
  uint64_t count = 0;
  for (const ColRange& range : ranges_) count += range.hi - range.lo + 1;
  return count;
}

void WarpingWindow::Canonicalize() {
  WARP_CHECK(!ranges_.empty());
  WARP_CHECK(cols_ > 0);
  const uint32_t last_col = U32(cols_ - 1);
  const size_t n = ranges_.size();

  for (ColRange& range : ranges_) {
    range.hi = std::min(range.hi, last_col);
    range.lo = std::min(range.lo, range.hi);
  }

  // Corner cells must be inside.
  ranges_[0].lo = 0;
  ranges_[n - 1].hi = last_col;

  // Monotone envelope, expanding only: hi is made non-decreasing going
  // forward, lo non-decreasing by relaxing earlier rows downward.
  for (size_t i = 1; i < n; ++i) {
    ranges_[i].hi = std::max(ranges_[i].hi, ranges_[i - 1].hi);
  }
  for (size_t i = n - 1; i > 0; --i) {
    ranges_[i - 1].lo = std::min(ranges_[i - 1].lo, ranges_[i].lo);
  }

  // DP reachability: row i must start no later than one past row i-1's
  // end. Patching expands hi upward only, which preserves monotonicity.
  for (size_t i = n - 1; i > 0; --i) {
    if (ranges_[i].lo > ranges_[i - 1].hi + 1) {
      ranges_[i - 1].hi = ranges_[i].lo - 1;
    }
  }
  // Canonicalize's whole contract is that the result satisfies IsValid.
  WARP_DCHECK(IsValid());
}

bool WarpingWindow::IsValid() const {
  std::string unused;
  return Validate(&unused);
}

bool WarpingWindow::Validate(std::string* error) const {
  if (ranges_.empty() || cols_ == 0) {
    *error = "window is empty";
    return false;
  }
  const size_t n = ranges_.size();
  char buffer[128];
  for (size_t i = 0; i < n; ++i) {
    if (ranges_[i].lo > ranges_[i].hi || ranges_[i].hi >= cols_) {
      std::snprintf(buffer, sizeof(buffer),
                    "row %zu has invalid range [%u, %u] (cols=%zu)", i,
                    ranges_[i].lo, ranges_[i].hi, cols_);
      *error = buffer;
      return false;
    }
  }
  if (ranges_[0].lo != 0) {
    *error = "cell (0, 0) is outside the window";
    return false;
  }
  if (ranges_[n - 1].hi != cols_ - 1) {
    *error = "cell (n-1, m-1) is outside the window";
    return false;
  }
  for (size_t i = 1; i < n; ++i) {
    if (ranges_[i].lo < ranges_[i - 1].lo ||
        ranges_[i].hi < ranges_[i - 1].hi) {
      std::snprintf(buffer, sizeof(buffer), "row %zu is not monotone", i);
      *error = buffer;
      return false;
    }
    if (ranges_[i].lo > ranges_[i - 1].hi + 1) {
      std::snprintf(buffer, sizeof(buffer),
                    "row %zu is unreachable from row %zu", i, i - 1);
      *error = buffer;
      return false;
    }
  }
  return true;
}

}  // namespace warp
