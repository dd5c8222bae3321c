// Warping windows: the set of matrix cells a constrained DTW may explore.
//
// A window is stored as one inclusive column range per row. This covers
// every constraint the paper discusses:
//   * the Sakoe–Chiba band (cDTW_w) — the constraint the paper advocates,
//   * FastDTW's projected-path neighborhood (ExpandedResWindow).
//
// Invariants of a usable window (established by Canonicalize, verified by
// IsValid):
//   * every row has a non-empty range,
//   * ranges are monotone: lo and hi are non-decreasing in the row index,
//   * (0,0) and (n-1,m-1) are inside,
//   * DP-reachability: row i's range starts no later than one past row
//     i-1's end (lo[i] <= hi[i-1] + 1), so some admissible step connects
//     consecutive rows.

#ifndef WARP_CORE_WINDOW_H_
#define WARP_CORE_WINDOW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "warp/common/assert.h"
#include "warp/core/warping_path.h"

namespace warp {

class WarpingWindow {
 public:
  struct ColRange {
    uint32_t lo = 0;
    uint32_t hi = 0;  // Inclusive.
    friend bool operator==(const ColRange&, const ColRange&) = default;
  };

  // The unconstrained window: every cell of the n x m matrix.
  static WarpingWindow Full(size_t n, size_t m);

  // Sakoe–Chiba band of half-width `band` cells around the (scaled)
  // diagonal. For n == m this is the textbook |i - j| <= band; for unequal
  // lengths the band is centered on the straight line from (0,0) to
  // (n-1,m-1) and automatically widened enough to stay connected.
  static WarpingWindow SakoeChiba(size_t n, size_t m, size_t band);

  // FastDTW's ExpandedResWindow: projects a low-resolution warping path
  // (computed on the half-length series) up to full resolution, then
  // expands it by `radius` cells in every direction — the semantics of the
  // reference implementation, expressed with contiguous per-row ranges.
  // (n, m) are the *high-resolution* lengths; the path lives on
  // (floor(n/2), floor(m/2)).
  static WarpingWindow FromLowResPath(const WarpingPath& low_res_path,
                                      size_t n, size_t m, size_t radius);

  size_t rows() const { return ranges_.size(); }
  size_t cols() const { return cols_; }

  const ColRange& range(size_t i) const {
    WARP_DCHECK(i < ranges_.size());
    return ranges_[i];
  }

  bool Contains(size_t i, size_t j) const {
    return i < ranges_.size() && j >= ranges_[i].lo && j <= ranges_[i].hi;
  }

  // Total number of cells in the window — the work a windowed DTW does.
  uint64_t CellCount() const;

  bool IsValid() const;
  bool Validate(std::string* error) const;

 private:
  WarpingWindow(size_t cols, std::vector<ColRange> ranges)
      : cols_(cols), ranges_(std::move(ranges)) {}

  // Repairs a freshly built window to satisfy the class invariants:
  // clamps, forces the two corner cells in, makes lo/hi monotone, and
  // patches reachability gaps.
  void Canonicalize();

  size_t cols_ = 0;
  std::vector<ColRange> ranges_;
};

}  // namespace warp

#endif  // WARP_CORE_WINDOW_H_
