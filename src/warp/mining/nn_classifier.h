// One-nearest-neighbor time-series classification.
//
// 1-NN with a DTW-family distance is the reference classifier throughout
// the paper (the UCR archive error rates in Section 3.1, the Appendix-B
// gesture experiment). Two engines are provided:
//
//   * Generic brute force over any SeriesMeasure — the honest baseline and
//     the harness FastDTW plugs into.
//   * An accelerated *exact* cDTW_w classifier using the full cascade the
//     paper alludes to (LB_Kim -> LB_Keogh both ways -> early-abandoning
//     DTW), demonstrating the "further two orders of magnitude" available
//     only to exact DTW.

#ifndef WARP_MINING_NN_CLASSIFIER_H_
#define WARP_MINING_NN_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "warp/common/cost.h"
#include "warp/core/cascade.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/envelope.h"
#include "warp/ts/dataset.h"
#include "warp/ts/multi_series.h"

namespace warp {

struct DtwWorkspace;

struct Prediction {
  int label = TimeSeries::kUnlabeled;
  size_t nn_index = 0;
  double distance = 0.0;
};

// The CascadeCounts fields are filled by the accelerated engine only.
struct ClassificationStats : CascadeCounts {
  size_t total = 0;
  size_t correct = 0;
  double accuracy = 0.0;
  double error_rate = 0.0;
  double seconds = 0.0;
  uint64_t candidates = 0;
};

// ---------------------------------------------------------------------------
// Generic brute-force engine.

Prediction Classify1Nn(const Dataset& train, std::span<const double> query,
                       const SeriesMeasure& measure);

// All Evaluate* functions accept a thread count: 1 (default) runs the
// historical serial loop on the calling thread; N > 1 fans the test
// queries out over a ThreadPool in fixed-size chunks, with per-chunk
// results merged in chunk order so every field of the returned stats
// (except wall-clock seconds) is bitwise-identical at any thread count.
// 0 = DefaultThreadCount(). When threads > 1 the measure is invoked
// concurrently and must be thread-safe.
ClassificationStats Evaluate1Nn(const Dataset& train, const Dataset& test,
                                const SeriesMeasure& measure,
                                size_t threads = 1);

// k-NN with majority vote; ties go to the class of the nearest neighbor
// among the tied classes. k = 1 reduces exactly to Classify1Nn. The
// returned Prediction's nn_index/distance refer to the overall nearest
// neighbor, label to the vote winner.
Prediction ClassifyKnn(const Dataset& train, std::span<const double> query,
                       size_t k, const SeriesMeasure& measure);

// Multichannel variant (Appendix B).
using MultiMeasure =
    std::function<double(const MultiSeries&, const MultiSeries&)>;

Prediction Classify1NnMulti(const std::vector<MultiSeries>& train,
                            const MultiSeries& query,
                            const MultiMeasure& measure);

ClassificationStats Evaluate1NnMulti(const std::vector<MultiSeries>& train,
                                     const std::vector<MultiSeries>& test,
                                     const MultiMeasure& measure,
                                     size_t threads = 1);

// ---------------------------------------------------------------------------
// Accelerated exact cDTW_w engine.

class AcceleratedNnClassifier {
 public:
  // Copies the training set and precomputes per-exemplar envelopes.
  // All series (train and later queries) must share one length.
  AcceleratedNnClassifier(const Dataset& train, size_t band,
                          CostKind cost = CostKind::kSquared);

  // Classifies against a thread-local reusable DtwWorkspace, so repeated
  // queries on one thread allocate nothing in steady state.
  Prediction Classify(std::span<const double> query,
                      ClassificationStats* stats = nullptr) const;

  // As above with a caller-owned workspace (e.g. a PerThread<DtwWorkspace>
  // slot); the cascade's DTW rung reuses it across candidates.
  Prediction Classify(std::span<const double> query,
                      ClassificationStats* stats,
                      DtwWorkspace* workspace) const;

  // Exact accelerated k-NN: the cascade prunes against the k-th best
  // distance so far, so correctness is preserved for any k.
  Prediction ClassifyKnn(std::span<const double> query, size_t k,
                         ClassificationStats* stats = nullptr) const;

  // threads as for Evaluate1Nn: parallelism is over test queries, each
  // worker reuses a private DtwWorkspace, and the cascade counters are
  // summed in chunk order — bitwise-identical stats at any thread count.
  ClassificationStats Evaluate(const Dataset& test, size_t threads = 1) const;

  size_t band() const { return band_; }

 private:
  // The exact k nearest through the cascade, pruned against the k-th
  // best distance so far; k = 1 is Classify.
  Prediction Nearest(std::span<const double> query, size_t k,
                     ClassificationStats* stats,
                     DtwWorkspace* workspace) const;

  Dataset train_;
  size_t band_;
  CostKind cost_;
  size_t length_;
  std::vector<Envelope> train_envelopes_;
  // Contiguous first/last elements of every training series, so the
  // cascade's LB_Kim rung runs over the whole set in one KimBlock.
  std::vector<double> heads_;
  std::vector<double> tails_;
};

}  // namespace warp

#endif  // WARP_MINING_NN_CLASSIFIER_H_
