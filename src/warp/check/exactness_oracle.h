// Exactness oracles: the optimized never disagrees with the naive.
//
// Every acceleration in this library (early abandoning, the lower-bound
// cascade inside the 1-NN classifier) is *exact*: it must return
// bit-for-bit the decision — and numerically the distance — of the naive
// computation it replaces. FastDTW is the deliberate exception: it
// is admissible-from-above (its path cost can only overshoot the true DTW
// distance). These oracles machine-check both sides of that contract plus
// the metric-style sanity identities (self-distance zero, symmetry).
//
// All oracles return false and explain the violation through `error`
// (never null); the property-fuzz harness in tests/check/ drives them
// across randomized inputs, bands, thresholds, and thread counts.

#ifndef WARP_CHECK_EXACTNESS_ORACLE_H_
#define WARP_CHECK_EXACTNESS_ORACLE_H_

#include <cstddef>
#include <span>
#include <string>

#include "warp/common/cost.h"
#include "warp/ts/dataset.h"

namespace warp {
namespace check {

// CdtwDistanceAbandoning(x, y, band, threshold) must either return the
// exact cDTW_w distance, or +infinity — and then only when the exact
// distance really exceeds `threshold`.
bool CheckAbandoningExact(std::span<const double> x,
                          std::span<const double> y, size_t band,
                          double threshold, CostKind cost, double tolerance,
                          std::string* error);

// FastDTW's contract: its distance is >= the exact DTW distance, its path
// is a valid warping path for (|x|, |y|), and the path's summed cost
// equals the distance it reports.
bool CheckFastDtwAdmissible(std::span<const double> x,
                            std::span<const double> y, size_t radius,
                            CostKind cost, double tolerance,
                            std::string* error);

// DTW(a, a) and cDTW_w(a, a) are exactly zero (the diagonal path costs
// nothing and no path costs less).
bool CheckSelfDistanceZero(std::span<const double> x, size_t band,
                           CostKind cost, double tolerance,
                           std::string* error);

// cDTW_w(x, y) == cDTW_w(y, x) for equal lengths (the DP is symmetric in
// its arguments up to summation order).
bool CheckSymmetry(std::span<const double> x, std::span<const double> y,
                   size_t band, CostKind cost, double tolerance,
                   std::string* error);

// The accelerated 1-NN classifier (LB_Kim -> LB_Keogh -> early-abandoning
// cDTW cascade) must agree with brute-force 1-NN over plain CdtwDistance
// on every query: same nearest-neighbor distance and same label. `threads`
// is forwarded to the accelerated engine's Evaluate to cross-check its
// aggregate accuracy at that thread count as well.
bool CheckCascadeExact(const Dataset& train, const Dataset& test,
                       size_t band, CostKind cost, size_t threads,
                       double tolerance, std::string* error);

}  // namespace check
}  // namespace warp

#endif  // WARP_CHECK_EXACTNESS_ORACLE_H_
