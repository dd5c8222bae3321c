// The exact pruning cascade for cDTW_w: LB_Kim -> LB_Keogh -> early-
// abandoning cDTW, the acceleration stack the paper credits exact DTW
// with and FastDTW cannot use.
//
// One Cascade is built per query (the query, its envelope, the band and
// the cost). Each candidate then climbs the rungs against an upper bound
// the caller owns — a best-so-far, a k-th best, or a fixed threshold:
//
//   1. LB_Kim from the candidate's first and last values. It is inline so
//      a caller can test endpoints it normalizes on the fly before it
//      touches the rest of the candidate; KimBlock evaluates it for
//      contiguous heads/tails in vector lanes.
//   2. LB_Keogh of the candidate against the query envelope, then of the
//      query against the candidate's envelope when the caller has one.
//   3. CdtwDistanceAbandoning at the bound, given rung 2's forward terms
//      as a residual. Where it abandons depends on the DP engine, so the
//      split of cascade_early_abandons and cascade_full_dtw depends on
//      the SIMD mode; the distances do not.
//
// A rung kills only when its lower bound is strictly greater than the
// bound. A candidate that ties the bound reaches the next rung, so a scan
// keeping the first strict minimum, a range query with an inclusive
// threshold, and a scan whose bound depends on how candidates are split
// into chunks or shards all stay exact.
//
// The cascade is the one place that counts this work: every candidate
// adds one to cascade_candidates and lb_kim_calls and ends in exactly one
// of lb_kim_kills, lb_keogh_kills, cascade_early_abandons and
// cascade_full_dtw, mirrored into the caller's CascadeCounts when given.
//
// Every candidate must have the query's length.

#ifndef WARP_CORE_CASCADE_H_
#define WARP_CORE_CASCADE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "warp/common/cost.h"
#include "warp/common/metrics.h"
#include "warp/core/envelope.h"

namespace warp {

struct DtwWorkspace;

// Where each candidate left the cascade; the four fields sum to the
// number of candidates.
struct CascadeCounts {
  uint64_t pruned_by_kim = 0;
  uint64_t pruned_by_keogh = 0;
  uint64_t abandoned_dtw = 0;
  uint64_t full_dtw = 0;
};

class Cascade {
 public:
  // `query`, and `counts` when given, must outlive the cascade.
  Cascade(std::span<const double> query, size_t band, CostKind cost,
          CascadeCounts* counts = nullptr);

  // LB_Kim against a candidate whose first and last values are `head` and
  // `tail`. On length 1 the first and last cells coincide and count once.
  double Kim(double head, double tail) const {
    return WithCost(cost_, [&](auto c) {
      if (query_.size() == 1) return c(query_.front(), head);
      return c(query_.front(), head) + c(query_.back(), tail);
    });
  }

  // out[i] = Kim(heads[i], tails[i]) for i < count, bitwise.
  void KimBlock(const double* heads, const double* tails, size_t count,
                double* out) const;

  // Rung 1: counts the candidate and its LB_Kim evaluation; true when
  // `kim` > `bound` kills it.
  bool KilledByKim(double kim, double bound) const {
    WARP_COUNT(obs::Counter::kCascadeCandidates);
    WARP_COUNT(obs::Counter::kLbKimCalls);
    if (!(kim > bound)) return false;
    WARP_COUNT(obs::Counter::kLbKimKills);
    if (counts_ != nullptr) ++counts_->pruned_by_kim;
    return true;
  }

  // Rungs 2 and 3 for a candidate KilledByKim let through: its exact
  // cDTW_w distance to the query, or +infinity when LB_Keogh or the
  // abandon killed it. `candidate_envelope`, when given, is the
  // candidate's envelope at the cascade's band.
  double Distance(std::span<const double> candidate, double bound,
                  DtwWorkspace* workspace,
                  const Envelope* candidate_envelope = nullptr) const;

 private:
  std::span<const double> query_;
  Envelope envelope_;
  size_t band_;
  CostKind cost_;
  CascadeCounts* counts_;
};

}  // namespace warp

#endif  // WARP_CORE_CASCADE_H_
