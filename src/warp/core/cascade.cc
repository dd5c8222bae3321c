#include "warp/core/cascade.h"

#include <limits>

#include "warp/common/assert.h"
#include "warp/core/dtw.h"
#include "warp/core/lower_bounds.h"
#include "warp/simd/batch.h"
#include "warp/simd/dispatch.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Cascade::Cascade(std::span<const double> query, size_t band, CostKind cost,
                 CascadeCounts* counts)
    : query_(query),
      envelope_(ComputeEnvelope(query, band)),
      band_(band),
      cost_(cost),
      counts_(counts) {
  WARP_CHECK(!query.empty());
}

void Cascade::KimBlock(const double* heads, const double* tails,
                       size_t count, double* out) const {
  // Each lane does Kim's two cost applications and one add in the same
  // order; the length-1 rule stays on the scalar path.
  if (simd::SimdActive() && query_.size() >= 2) {
    WithCost(cost_, [&](auto c) {
      simd::LbKimBatch<decltype(c)>(query_.front(), query_.back(), heads,
                                    tails, count, out);
    });
    return;
  }
  for (size_t i = 0; i < count; ++i) out[i] = Kim(heads[i], tails[i]);
}

double Cascade::Distance(std::span<const double> candidate, double bound,
                         DtwWorkspace* workspace,
                         const Envelope* candidate_envelope) const {
  // LB_Keogh stops summing once past `bound` and returns the partial sum,
  // so `> bound` is the same test on the full bound.
  if (LbKeogh(envelope_, candidate, cost_, bound) > bound ||
      (candidate_envelope != nullptr &&
       LbKeogh(*candidate_envelope, query_, cost_, bound) > bound)) {
    WARP_COUNT(obs::Counter::kLbKeoghKills);
    if (counts_ != nullptr) ++counts_->pruned_by_keogh;
    return kInf;
  }
  // The forward rung's terms as suffix sums: column j of any path costs at
  // least candidate point j's excursion from the query envelope. An
  // unbounded call cannot abandon and skips them.
  KeoghResidual residual{{}, band_};
  if (bound < kInf && workspace != nullptr) {
    const size_t m = candidate.size();
    workspace->PrepareResidual(m);
    double* suffix = workspace->residual.data();
    WithCost(cost_, [&](auto c) {
      double sum = 0.0;
      suffix[0] = 0.0;
      for (size_t k = 1; k < m; ++k) {
        const double v = candidate[m - k];
        const double hi = envelope_.upper[m - k];
        const double lo = envelope_.lower[m - k];
        sum += v > hi ? c(v, hi) : (v < lo ? c(v, lo) : 0.0);
        suffix[k] = sum;
      }
    });
    residual.suffix = workspace->residual;
  }
  const double d = CdtwDistanceAbandoning(
      query_, candidate, band_, bound, cost_, workspace,
      residual.suffix.empty() ? nullptr : &residual);
  if (d == kInf) {
    WARP_COUNT(obs::Counter::kCascadeEarlyAbandons);
    if (counts_ != nullptr) ++counts_->abandoned_dtw;
  } else {
    WARP_COUNT(obs::Counter::kCascadeFullDtw);
    if (counts_ != nullptr) ++counts_->full_dtw;
  }
  return d;
}

}  // namespace warp
