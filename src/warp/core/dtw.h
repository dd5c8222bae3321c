// Exact Dynamic Time Warping: full and Sakoe–Chiba banded (cDTW_w) in
// distance-only and path-recovering forms, and the path-recovering
// arbitrary-window variant.
//
// Terminology follows the paper:
//   * DTW        — unconstrained ("Full") DTW; O(n*m) time.
//   * cDTW_w     — DTW constrained to a Sakoe–Chiba band of half-width w;
//                  O(n*w) time and O(w) space in the distance-only kernel.
//                  cDTW_0 is the Euclidean distance; cDTW_100% is Full DTW.
//   * windowed   — DTW restricted to an arbitrary WarpingWindow; this is
//                  the refinement step FastDTW runs at each resolution.
//
// Distances are accumulated local costs (squared differences by default)
// with no final square root, matching the recurrence in Section 2 of the
// paper. Callers who want a metric-like value can take std::sqrt.
//
// All functions accept series as std::span<const double>; std::vector
// converts implicitly.

#ifndef WARP_CORE_DTW_H_
#define WARP_CORE_DTW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "warp/common/cost.h"
#include "warp/core/dp_engine.h"
#include "warp/core/warping_path.h"
#include "warp/core/window.h"
#include "warp/ts/multi_series.h"

namespace warp {

// Result of a path-recovering DTW computation.
struct DtwResult {
  double distance = 0.0;
  WarpingPath path;
  uint64_t cells_visited = 0;
};

// Historical name for the engine's reusable scratch space (see
// DtwWorkspace in dp_engine.h). Passing the same workspace across calls
// in a tight loop makes the steady state allocation-free.
using DtwBuffer = DtwWorkspace;

// ---------------------------------------------------------------------------
// Unconstrained (Full) DTW.

// Distance only; O(min) memory. `cells` (optional) receives the number of
// DP cells evaluated; `workspace` (optional) reuses scratch rows across
// calls.
double DtwDistance(std::span<const double> x, std::span<const double> y,
                   CostKind cost = CostKind::kSquared,
                   uint64_t* cells = nullptr,
                   DtwWorkspace* workspace = nullptr);

// Distance and optimal warping path; O(n*m) memory.
DtwResult Dtw(std::span<const double> x, std::span<const double> y,
              CostKind cost = CostKind::kSquared);

// ---------------------------------------------------------------------------
// Sakoe–Chiba constrained DTW (cDTW_w). `band` is the half-width in cells;
// the *Fraction forms take the paper's w as a fraction of the longer
// length (e.g. 0.05 for w = 5%).

double CdtwDistance(std::span<const double> x, std::span<const double> y,
                    size_t band, CostKind cost = CostKind::kSquared,
                    DtwBuffer* buffer = nullptr, uint64_t* cells = nullptr);

double CdtwDistanceFraction(std::span<const double> x,
                            std::span<const double> y, double fraction,
                            CostKind cost = CostKind::kSquared,
                            DtwBuffer* buffer = nullptr);

// LB_Keogh's per-column terms of y against x's envelope at `band`, as
// suffix sums: suffix[k] sums the terms of y's last k points, so every
// warping path still pays at least that in the last k columns. Holds
// y.size() + simd::kWavePad doubles. Cascade::Distance writes it.
struct KeoghResidual {
  std::span<const double> suffix;
  size_t band = 0;
};

// Early-abandoning variant: CdtwDistance's exact result, or +infinity only
// when that exceeds `abandon_above`. The row engine tests each row's
// minimum, the SIMD wavefront one pair of consecutive anti-diagonals in
// four, so where a call abandons depends on the engine. `residual` (equal
// lengths, residual->band == band) adds what the columns after a tested
// cell must still cost. Used by the pruning cascade.
double CdtwDistanceAbandoning(std::span<const double> x,
                              std::span<const double> y, size_t band,
                              double abandon_above,
                              CostKind cost = CostKind::kSquared,
                              DtwBuffer* buffer = nullptr,
                              const KeoghResidual* residual = nullptr);

// Distance and path under a Sakoe–Chiba band.
DtwResult Cdtw(std::span<const double> x, std::span<const double> y,
               size_t band, CostKind cost = CostKind::kSquared);

// ---------------------------------------------------------------------------
// Arbitrary-window DTW. The window must be valid (see WarpingWindow) and
// shaped (x.size(), y.size()).

DtwResult WindowedDtw(std::span<const double> x, std::span<const double> y,
                      const WarpingWindow& window,
                      CostKind cost = CostKind::kSquared);

// ---------------------------------------------------------------------------
// Euclidean distance (= cDTW_0): the registry's `ed` and ADTW's omega
// suggestion. Lengths must match. For an early-abandoning Euclidean
// distance call CdtwDistanceAbandoning at band 0: on equal lengths it adds
// the same costs in the same order, and on the row engine it abandons on
// the same partial sum.

double EuclideanDistance(std::span<const double> x,
                         std::span<const double> y,
                         CostKind cost = CostKind::kSquared);

// ---------------------------------------------------------------------------
// Multichannel (dependent) DTW: the local cost of aligning frames i and j
// is the sum of per-channel costs, so all channels warp together. Used by
// the Appendix-B gesture experiments.

double MultiDtwDistance(const MultiSeries& x, const MultiSeries& y,
                        CostKind cost = CostKind::kSquared,
                        uint64_t* cells = nullptr);

double MultiCdtwDistance(const MultiSeries& x, const MultiSeries& y,
                         size_t band, CostKind cost = CostKind::kSquared,
                         DtwBuffer* buffer = nullptr,
                         uint64_t* cells = nullptr);

DtwResult MultiWindowedDtw(const MultiSeries& x, const MultiSeries& y,
                           const WarpingWindow& window,
                           CostKind cost = CostKind::kSquared);

}  // namespace warp

#endif  // WARP_CORE_DTW_H_
