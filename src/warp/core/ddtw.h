// Derivative Dynamic Time Warping (Keogh & Pazzani, SDM 2001).
//
// An extension beyond the paper: DTW on the estimated first derivative of
// the series rather than on raw values. Alignments are then driven by
// *shape* (slopes) instead of absolute level, which prevents the
// "singularity" artifacts where one point maps onto a long constant run.
// Included because it composes with everything here — DDTW is just DTW on
// a transformed series, so windows, lower bounds and FastDTW all apply.

#ifndef WARP_CORE_DDTW_H_
#define WARP_CORE_DDTW_H_

#include <span>
#include <vector>

#include "warp/core/dtw.h"

namespace warp {

// The paper's derivative estimate:
//   d[i] = ((x[i] - x[i-1]) + (x[i+1] - x[i-1]) / 2) / 2
// for interior points; the endpoints copy their neighbors' estimates.
// Requires at least 3 points.
std::vector<double> DerivativeTransform(std::span<const double> values);

// DTW distance between the derivative transforms, constrained to `band`
// cells (band >= length gives unconstrained DDTW).
double DdtwDistance(std::span<const double> x, std::span<const double> y,
                    size_t band, CostKind cost = CostKind::kSquared,
                    DtwWorkspace* workspace = nullptr);

}  // namespace warp

#endif  // WARP_CORE_DDTW_H_
