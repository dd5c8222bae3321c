#include "warp/mining/nn_classifier.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "warp/common/assert.h"
#include "warp/common/parallel.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/core/neighbor.h"

namespace warp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One query per chunk: each query is a full scan of the training set, so
// chunk overhead is negligible and load balance is maximal.
constexpr size_t kEvalGrain = 1;

void Finalize(ClassificationStats* stats) {
  stats->accuracy = stats->total > 0 ? static_cast<double>(stats->correct) /
                                           static_cast<double>(stats->total)
                                     : 0.0;
  stats->error_rate = 1.0 - stats->accuracy;
}

// Shared evaluation loop: classifies query i via is_correct(i) for all i
// in [0, n), serially when threads <= 1, otherwise chunked over a pool.
// Per-query correctness lands in its own slot, so the counts are
// identical at any thread count.
template <typename IsCorrectFn>
ClassificationStats EvaluateQueries(size_t n, size_t threads,
                                    const IsCorrectFn& is_correct) {
  ClassificationStats stats;
  threads = ResolveThreadCount(threads);
  std::optional<ThreadPool> pool;
  if (threads > 1 && n > 1) pool.emplace(threads);
  std::vector<uint8_t> correct(n, 0);
  Stopwatch watch;
  ParallelFor(pool ? &*pool : nullptr, 0, n, kEvalGrain,
              [&](size_t chunk_begin, size_t chunk_end, size_t /*worker*/) {
                for (size_t i = chunk_begin; i < chunk_end; ++i) {
                  correct[i] = is_correct(i) ? 1 : 0;
                }
              });
  stats.seconds = watch.ElapsedSeconds();
  stats.total = n;
  for (const uint8_t c : correct) stats.correct += c;
  Finalize(&stats);
  return stats;
}

}  // namespace

Prediction Classify1Nn(const Dataset& train, std::span<const double> query,
                       const SeriesMeasure& measure) {
  WARP_CHECK(!train.empty());
  Prediction best;
  best.distance = kInf;
  for (size_t i = 0; i < train.size(); ++i) {
    const double d = measure(train[i].view(), query);
    if (d < best.distance) {
      best.distance = d;
      best.nn_index = i;
      best.label = train[i].label();
    }
  }
  return best;
}

ClassificationStats Evaluate1Nn(const Dataset& train, const Dataset& test,
                                const SeriesMeasure& measure,
                                size_t threads) {
  WARP_CHECK(!train.empty() && !test.empty());
  return EvaluateQueries(test.size(), threads, [&](size_t i) {
    return Classify1Nn(train, test[i].view(), measure).label ==
           test[i].label();
  });
}

namespace {

// Majority vote over the k nearest (sorted by NeighborLess); ties
// resolved toward the class whose nearest member is closest (first-seen
// wins).
Prediction VoteFromKBest(const std::vector<Neighbor>& kbest) {
  WARP_CHECK(!kbest.empty());
  std::map<int, size_t> votes;
  for (const Neighbor& n : kbest) ++votes[n.label];
  size_t best_votes = 0;
  for (const auto& [label, n] : votes) best_votes = std::max(best_votes, n);

  Prediction prediction;
  prediction.nn_index = kbest.front().index;
  prediction.distance = kbest.front().distance;
  for (const Neighbor& n : kbest) {
    if (votes[n.label] == best_votes) {
      prediction.label = n.label;
      break;
    }
  }
  return prediction;
}

}  // namespace

Prediction ClassifyKnn(const Dataset& train, std::span<const double> query,
                       size_t k, const SeriesMeasure& measure) {
  WARP_CHECK(!train.empty());
  WARP_CHECK(k >= 1 && k <= train.size());
  std::vector<Neighbor> kbest;
  for (size_t i = 0; i < train.size(); ++i) {
    AddTopK(&kbest, {i, train[i].label(), measure(train[i].view(), query)},
            k);
  }
  return VoteFromKBest(kbest);
}

Prediction Classify1NnMulti(const std::vector<MultiSeries>& train,
                            const MultiSeries& query,
                            const MultiMeasure& measure) {
  WARP_CHECK(!train.empty());
  Prediction best;
  best.distance = kInf;
  for (size_t i = 0; i < train.size(); ++i) {
    const double d = measure(train[i], query);
    if (d < best.distance) {
      best.distance = d;
      best.nn_index = i;
      best.label = train[i].label();
    }
  }
  return best;
}

ClassificationStats Evaluate1NnMulti(const std::vector<MultiSeries>& train,
                                     const std::vector<MultiSeries>& test,
                                     const MultiMeasure& measure,
                                     size_t threads) {
  WARP_CHECK(!train.empty() && !test.empty());
  return EvaluateQueries(test.size(), threads, [&](size_t i) {
    return Classify1NnMulti(train, test[i], measure).label ==
           test[i].label();
  });
}

// ---------------------------------------------------------------------------

AcceleratedNnClassifier::AcceleratedNnClassifier(const Dataset& train,
                                                 size_t band, CostKind cost)
    : train_(train), band_(band), cost_(cost) {
  WARP_CHECK(!train_.empty());
  length_ = train_.UniformLength();
  WARP_CHECK_MSG(length_ > 0,
                 "accelerated classifier requires uniform-length series");
  train_envelopes_.reserve(train_.size());
  heads_.reserve(train_.size());
  tails_.reserve(train_.size());
  for (const TimeSeries& series : train_.series()) {
    train_envelopes_.push_back(ComputeEnvelope(series.view(), band_));
    heads_.push_back(series.view().front());
    tails_.push_back(series.view().back());
  }
}

Prediction AcceleratedNnClassifier::Classify(
    std::span<const double> query, ClassificationStats* stats) const {
  // Thread-local so repeated queries from one thread hit warm scratch rows
  // (allocation-free steady state; see obs::Counter::kWorkspaceAllocs).
  static thread_local DtwWorkspace workspace;
  return Classify(query, stats, &workspace);
}

Prediction AcceleratedNnClassifier::Classify(
    std::span<const double> query, ClassificationStats* stats,
    DtwWorkspace* buffer) const {
  return Nearest(query, 1, stats, buffer);
}

Prediction AcceleratedNnClassifier::ClassifyKnn(
    std::span<const double> query, size_t k,
    ClassificationStats* stats) const {
  WARP_CHECK(k >= 1 && k <= train_.size());
  static thread_local DtwWorkspace workspace;
  return Nearest(query, k, stats, &workspace);
}

Prediction AcceleratedNnClassifier::Nearest(std::span<const double> query,
                                            size_t k,
                                            ClassificationStats* stats,
                                            DtwWorkspace* buffer) const {
  WARP_CHECK_MSG(query.size() == length_,
                 "query length must match the training set");
  const Cascade cascade(query, band_, cost_, stats);
  std::vector<double> kims(train_.size());
  cascade.KimBlock(heads_.data(), tails_.data(), kims.size(), kims.data());
  if (stats != nullptr) stats->candidates += train_.size();

  // The k-th best so far bounds the cascade; AddTopK keeps the first of
  // equal distances, as a serial brute-force scan does.
  std::vector<Neighbor> kbest;
  for (size_t i = 0; i < train_.size(); ++i) {
    const double threshold = kbest.size() == k ? kbest.back().distance : kInf;
    if (cascade.KilledByKim(kims[i], threshold)) continue;
    const double d = cascade.Distance(train_[i].view(), threshold, buffer,
                                      &train_envelopes_[i]);
    if (d < kInf) AddTopK(&kbest, {i, train_[i].label(), d}, k);
  }
  return VoteFromKBest(kbest);
}

ClassificationStats AcceleratedNnClassifier::Evaluate(const Dataset& test,
                                                      size_t threads) const {
  WARP_CHECK(!test.empty());
  const size_t n = test.size();
  threads = ResolveThreadCount(threads);
  std::optional<ThreadPool> pool;
  if (threads > 1 && n > 1) pool.emplace(threads);
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  // Each chunk accumulates its own cascade counters; the merge below runs
  // in chunk order, so the totals match the serial scan exactly. Each
  // worker slot reuses one DtwWorkspace across all its queries.
  std::vector<ClassificationStats> partials(ChunkCount(0, n, kEvalGrain));
  PerThread<DtwWorkspace> buffers(pool_ptr);
  Stopwatch watch;
  ParallelFor(pool_ptr, 0, n, kEvalGrain,
              [&](size_t chunk_begin, size_t chunk_end, size_t worker) {
                ClassificationStats local;
                for (size_t i = chunk_begin; i < chunk_end; ++i) {
                  const Prediction prediction = Classify(
                      test[i].view(), &local, &buffers[worker]);
                  ++local.total;
                  if (prediction.label == test[i].label()) ++local.correct;
                }
                partials[chunk_begin / kEvalGrain] = local;
              });

  ClassificationStats stats;
  stats.seconds = watch.ElapsedSeconds();
  for (const ClassificationStats& partial : partials) {
    stats.total += partial.total;
    stats.correct += partial.correct;
    stats.candidates += partial.candidates;
    stats.pruned_by_kim += partial.pruned_by_kim;
    stats.pruned_by_keogh += partial.pruned_by_keogh;
    stats.abandoned_dtw += partial.abandoned_dtw;
    stats.full_dtw += partial.full_dtw;
  }
  Finalize(&stats);
  return stats;
}

}  // namespace warp
