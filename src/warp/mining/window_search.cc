#include "warp/mining/window_search.h"

#include <limits>

#include "warp/common/assert.h"
#include "warp/core/cascade.h"
#include "warp/core/dtw.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double LoocvAccuracy(const Dataset& dataset, size_t band, CostKind cost) {
  WARP_CHECK(dataset.size() >= 2);
  WARP_CHECK_MSG(dataset.UniformLength() > 0,
                 "window search requires uniform-length series");

  // Candidate envelopes once per band.
  std::vector<Envelope> envelopes;
  envelopes.reserve(dataset.size());
  for (const TimeSeries& series : dataset.series()) {
    envelopes.push_back(ComputeEnvelope(series.view(), band));
  }

  size_t correct = 0;
  DtwWorkspace buffer;
  for (size_t q = 0; q < dataset.size(); ++q) {
    const Cascade cascade(dataset[q].view(), band, cost);
    double best = kInf;
    int best_label = TimeSeries::kUnlabeled;
    for (size_t i = 0; i < dataset.size(); ++i) {
      if (i == q) continue;
      const std::span<const double> candidate = dataset[i].view();
      if (cascade.KilledByKim(cascade.Kim(candidate.front(), candidate.back()),
                              best)) {
        continue;
      }
      const double d =
          cascade.Distance(candidate, best, &buffer, &envelopes[i]);
      if (d < best) {
        best = d;
        best_label = dataset[i].label();
      }
    }
    if (best_label == dataset[q].label()) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

WindowSearchResult FindBestWindowLoocv(const Dataset& dataset,
                                       size_t max_band, size_t step,
                                       CostKind cost) {
  WARP_CHECK(step > 0);
  WindowSearchResult result;
  result.best_accuracy = -1.0;
  for (size_t band = 0; band <= max_band; band += step) {
    const double accuracy = LoocvAccuracy(dataset, band, cost);
    result.bands.push_back(band);
    result.accuracy_by_band.push_back(accuracy);
    // Strictly-greater keeps the smallest band on ties (UCR convention).
    if (accuracy > result.best_accuracy) {
      result.best_accuracy = accuracy;
      result.best_band = band;
    }
  }
  return result;
}

}  // namespace warp
