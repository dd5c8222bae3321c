// Shared machinery for the all-pairs timing experiments (Figs. 1 and 4).
//
// The paper times *every* pairwise comparison of a dataset (400,960 pairs
// for Fig. 1). On one laptop core that sweep takes days, so the harness
// times a uniformly-sampled subset of the pairs and reports both the
// measured per-comparison cost and the extrapolated total — the paper's
// claims are about which curve is lower, which sampling preserves.
//
// TimeAllPairs is templated on the measure callable so the comparison
// lands as a direct (inlinable) call: at microseconds per pair, a
// std::function indirection is measurable.
//
// TimeAllPairsParallel is the multi-core variant. It preserves the serial
// checksum bit-for-bit at any thread count: every pair's distance is
// written to its own slot and the checksum is reduced in pair order on
// the calling thread afterwards — the exact summation order of the serial
// loop. Paper-faithful timings use 1 thread; N-thread runs measure what
// the same sweep costs when the hardware is actually used.

#ifndef WARP_BENCH_HARNESS_PAIRWISE_H_
#define WARP_BENCH_HARNESS_PAIRWISE_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "warp/common/parallel.h"
#include "warp/common/stopwatch.h"
#include "warp/core/distance_matrix.h"
#include "warp/ts/dataset.h"

namespace warp {
namespace bench {

struct PairwiseTiming {
  uint64_t pairs_timed = 0;
  double seconds = 0.0;
  double checksum = 0.0;  // Sum of distances: defeats dead-code elimination
                          // and doubles as a cross-run sanity check.

  double micros_per_pair() const {
    return pairs_timed > 0 ? seconds * 1e6 / static_cast<double>(pairs_timed)
                           : 0.0;
  }

  double ExtrapolatedSeconds(uint64_t total_pairs) const {
    return micros_per_pair() * 1e-6 * static_cast<double>(total_pairs);
  }
};

// Times `measure` over all pairs (i, j), i < j, of the first
// `sample_count` series of `dataset`.
template <typename Measure>
PairwiseTiming TimeAllPairs(const Dataset& dataset, size_t sample_count,
                            Measure&& measure) {
  const size_t n = std::min(sample_count, dataset.size());
  PairwiseTiming timing;
  Stopwatch watch;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      timing.checksum += measure(dataset[i].view(), dataset[j].view());
      ++timing.pairs_timed;
    }
  }
  timing.seconds = watch.ElapsedSeconds();
  return timing;
}

// Multi-core all-pairs timing. `make_measure` is a factory invoked once
// per worker slot, so each worker owns private scratch (a captured
// DtwBuffer, envelopes, ...) — pass a factory returning a fresh closure,
// not a shared stateful one. threads == 1 runs the chunks inline on the
// calling thread (no pool, no distances-slot contention); threads == 0
// means DefaultThreadCount(). The checksum is bitwise-equal to
// TimeAllPairs' for the same pairs at every thread count.
template <typename MeasureFactory>
PairwiseTiming TimeAllPairsParallel(const Dataset& dataset,
                                    size_t sample_count, size_t threads,
                                    MeasureFactory&& make_measure) {
  const size_t n = std::min(sample_count, dataset.size());
  PairwiseTiming timing;
  if (n < 2) return timing;
  const size_t total_pairs = n * (n - 1) / 2;
  threads = ResolveThreadCount(threads);

  std::vector<double> distances(total_pairs);
  Stopwatch watch;
  if (threads <= 1) {
    auto measure = make_measure();
    size_t p = 0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        distances[p++] = measure(dataset[i].view(), dataset[j].view());
      }
    }
  } else {
    ThreadPool pool(threads);
    using Measure = std::decay_t<decltype(make_measure())>;
    std::vector<Measure> measures;
    measures.reserve(pool.size());
    for (size_t w = 0; w < pool.size(); ++w) {
      measures.push_back(make_measure());
    }
    constexpr size_t kPairGrain = 32;
    ParallelFor(&pool, 0, total_pairs, kPairGrain,
                [&](size_t chunk_begin, size_t chunk_end, size_t worker) {
                  auto [i, j] = CondensedPairFromIndex(chunk_begin, n);
                  Measure& measure = measures[worker];
                  for (size_t p = chunk_begin; p < chunk_end; ++p) {
                    distances[p] =
                        measure(dataset[i].view(), dataset[j].view());
                    if (++j == n) {
                      ++i;
                      j = i + 1;
                    }
                  }
                });
  }
  timing.seconds = watch.ElapsedSeconds();
  timing.pairs_timed = total_pairs;
  for (const double d : distances) timing.checksum += d;
  return timing;
}

inline uint64_t TotalPairs(uint64_t count) { return count * (count - 1) / 2; }

}  // namespace bench
}  // namespace warp

#endif  // WARP_BENCH_HARNESS_PAIRWISE_H_
