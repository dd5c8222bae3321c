// UCR-suite-style subsequence similarity search.
//
// Finds the best-matching window of a long series for a query under
// cDTW_w, with the optimizations of Rakthanmanon et al. (KDD 2012) the
// paper invokes for its trillion-point projection: just-in-time
// z-normalization of each candidate window from running sums, a cascade of
// lower bounds (LB_Kim -> LB_Keogh), and early-abandoning DTW. These
// tricks only exist for *exact* DTW — the structural reason FastDTW cannot
// compete in repeated-measurement workloads.

#ifndef WARP_MINING_SIMILARITY_SEARCH_H_
#define WARP_MINING_SIMILARITY_SEARCH_H_

#include <cstdint>
#include <span>

#include "warp/common/cost.h"
#include "warp/core/cascade.h"

namespace warp {

struct SubsequenceMatch {
  size_t position = 0;   // Start index of the best window in the haystack.
  double distance = 0.0; // cDTW distance on the z-normalized window.
};

struct SearchStats : CascadeCounts {
  uint64_t windows = 0;
  double seconds = 0.0;
};

// Scans every window of haystack of length query.size(); both the query
// and each window are z-normalized before comparison (the standard
// similarity-search contract). `band` is the cDTW half-width in cells.
SubsequenceMatch FindBestMatch(std::span<const double> haystack,
                               std::span<const double> query, size_t band,
                               CostKind cost = CostKind::kSquared,
                               SearchStats* stats = nullptr);

// Reference implementation without any pruning, for differential tests
// and for the ablation benchmark.
SubsequenceMatch FindBestMatchNaive(std::span<const double> haystack,
                                    std::span<const double> query,
                                    size_t band,
                                    CostKind cost = CostKind::kSquared,
                                    SearchStats* stats = nullptr);

}  // namespace warp

#endif  // WARP_MINING_SIMILARITY_SEARCH_H_
