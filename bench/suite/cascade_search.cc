// Workload cascade_search: the UCR-suite path behind the paper's
// trillion-point projection.
//
// Three op classes take turns on one thread, each for its share of the
// run: FindBestMatch with short queries (length 128, w=5%), FindBestMatch
// with long queries (length 512, w=10%), each query over its own seeded
// random-walk haystack, and AcceleratedNnClassifier::Classify over a
// gesture test set against a gesture train set (N=315, w=5%). The lower
// bounds, envelopes, early abandoning and the mining cascades do the work
// and the full DP does little — the opposite of paper_quadrants.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "suite.h"
#include "warp/check/exactness_oracle.h"
#include "warp/common/random.h"
#include "warp/core/dtw.h"
#include "warp/core/envelope.h"
#include "warp/core/lower_bounds.h"
#include "warp/gen/gesture.h"
#include "warp/gen/random_walk.h"
#include "warp/gen/warping.h"
#include "warp/mining/nn_classifier.h"
#include "warp/mining/similarity_search.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace bench {
namespace suite {
namespace {

constexpr size_t kGestureLength = 315;
constexpr int kGestureClasses = 8;
constexpr double kGestureWindow = 0.05;

// The two search shapes: query length and window fraction.
constexpr size_t kShapes = 2;
const char* const kShapeNames[kShapes] = {"short", "long"};
constexpr size_t kShapeLengths[kShapes] = {128, 512};
constexpr double kShapeWindows[kShapes] = {0.05, 0.10};
// The planted copy of a query starts among the haystack's first
// kPlantSpan points, with Gaussian noise of kPlantNoise on every point.
constexpr size_t kPlantSpan = 64;
constexpr double kPlantNoise = 0.1;

size_t BandOf(size_t length, double window) {
  return static_cast<size_t>(window * static_cast<double>(length) + 0.5);
}

// One search: a random-walk query and its own random-walk haystack, with
// a warped, noised copy of the query spliced in near the haystack's
// start. The best-so-far is tight after a short prefix, so for the rest
// of the scan the cascade rungs, not the DP, do the work — the regime of
// a long search. (Without the early match the best-so-far stays loose and
// one query can cost several times another; with every query sharing one
// haystack, one seed's haystack would set the cost of all of them.)
struct Query {
  size_t band = 0;
  std::vector<double> values;
  std::vector<double> haystack;
};

struct Inputs {
  std::vector<Query> queries[kShapes];
  Dataset train;
  Dataset test;
};

Dataset MakeGestures(size_t per_class, const gen::GestureOptions& options,
                     uint64_t seed) {
  Rng rng(seed);
  Dataset dataset;
  for (int c = 0; c < kGestureClasses; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      dataset.Add(gen::MakeGesture(c, options, rng));
    }
  }
  return dataset;
}

Query MakeQuery(const RunConfig& config, size_t length, double window,
                Rng& rng) {
  Query query;
  query.band = BandOf(length, window);
  query.values = gen::RandomWalk(length, rng);
  query.haystack = gen::RandomWalk(config.Count("haystack_points"), rng);
  // The copy sits at a seeded offset, shifted to continue the walk where
  // it lands.
  const size_t at = rng.UniformInt(kPlantSpan);
  std::vector<double> copy = gen::ApplyRandomWarp(query.values, window / 2.0,
                                                  rng);
  const double shift = query.haystack[at] - copy.front();
  for (size_t i = 0; i < length; ++i) {
    query.haystack[at + i] = copy[i] + shift + rng.Gaussian(0.0, kPlantNoise);
  }
  return query;
}

Inputs MakeInputs(const RunConfig& config) {
  Inputs inputs;
  Rng rng(MixSeed(config.seed, 0x5E));
  for (size_t s = 0; s < kShapes; ++s) {
    for (size_t i = 0; i < config.Count("queries_per_shape"); ++i) {
      inputs.queries[s].push_back(
          MakeQuery(config, kShapeLengths[s], kShapeWindows[s], rng));
    }
  }
  // The eight gesture classes are a fixed vocabulary (the generator's
  // default template seed); every train and test instance comes from the
  // run's seed.
  gen::GestureOptions gesture;
  gesture.length = kGestureLength;
  inputs.train = MakeGestures(config.Count("train_per_class"), gesture,
                              MixSeed(config.seed, 0x7E));
  inputs.test = MakeGestures(config.Count("test_per_class"), gesture,
                             MixSeed(config.seed, 0x8E));
  return inputs;
}


// The three op classes: search with each query shape, then classify.
constexpr size_t kOps = kShapes + 1;
constexpr size_t kClassify = kShapes;
const char* const kOpNames[kOps] = {"search_short", "search_long",
                                    "classify"};
// Each op class's share of the run; the set-up repetitions and the checks
// take the rest. Short searches are cheap, so a tenth of the run still
// calls each one about eighty times; the others get about twenty calls.
constexpr double kOpShares[kOps] = {0.1, 0.4, 0.45};

struct OpClass {
  ItemTimes times;
  size_t next = 0;
  uint64_t calls = 0;
  double busy_s = 0.0;
};

// One timed pass over the three op classes. First-round calls also
// collect the cascade counts and answers, so those repeat exactly for a
// seed; later rounds must reproduce the first round's answers.
struct Pass {
  OpClass ops[kOps];
  std::vector<SubsequenceMatch> answers[kShapes];
  SearchStats search_stats;
  double search_cells = 0.0;
  double simd_blocks = 0.0;
  double simd_tail = 0.0;
  std::vector<Prediction> predictions;
  ClassificationStats classify_stats;
  double classify_cells = 0.0;
  bool stable = true;

  double rate() const {
    return GeoMean({ops[0].times.Rate(), ops[1].times.Rate(),
                    ops[2].times.Rate()});
  }
};

void AddSearchStats(const SearchStats& s, SearchStats* total) {
  total->windows += s.windows;
  total->pruned_by_kim += s.pruned_by_kim;
  total->pruned_by_keogh += s.pruned_by_keogh;
  total->abandoned_dtw += s.abandoned_dtw;
  total->full_dtw += s.full_dtw;
}

bool SamePrediction(const Prediction& a, const Prediction& b) {
  return a.label == b.label && a.nn_index == b.nn_index &&
         std::memcmp(&a.distance, &b.distance, sizeof(double)) == 0;
}

class PassRunner {
 public:
  PassRunner(const Inputs& inputs, const AcceleratedNnClassifier& classifier)
      : inputs_(inputs), classifier_(classifier) {
    for (size_t s = 0; s < kShapes; ++s) {
      items_[s] = inputs.queries[s].size();
      pass_.answers[s].resize(items_[s]);
      pass_.ops[s].times = ItemTimes(items_[s], kFastestCall);
    }
    items_[kClassify] = inputs.test.size();
    pass_.ops[kClassify].times = ItemTimes(items_[kClassify], kFastestCall);
    pass_.predictions.resize(items_[kClassify]);
  }

  // The op classes take turns in `rounds` rounds, each running until its
  // busy time reaches its share of `seconds` so far, so a slow spell of
  // the machine is spread over all three. Every item runs at least once.
  // `each_round` runs before every round.
  Pass Run(const RunConfig& config, double seconds,
           const std::function<void()>& each_round) {
    const size_t rounds = config.Count("rounds");
    for (size_t round = 1; round <= rounds; ++round) {
      each_round();
      for (size_t op = 0; op < kOps; ++op) {
        const double until = seconds * kOpShares[op] *
                             static_cast<double>(round) /
                             static_cast<double>(rounds);
        while (pass_.ops[op].busy_s < until) CallOnce(op);
      }
    }
    for (size_t op = 0; op < kOps; ++op) {
      while (pass_.ops[op].calls < items_[op]) CallOnce(op);
    }
    return std::move(pass_);
  }

 private:
  void CallOnce(size_t op) {
    OpClass& o = pass_.ops[op];
    const size_t item = o.next;
    o.next = (item + 1) % items_[op];
    const bool first = o.calls < items_[op];
    const uint64_t trace = NewSpanId();
    const int64_t t0 = NowNs();
    if (op == kClassify) {
      Classify(item, first);
    } else {
      Search(op, item, first);
    }
    const int64_t t1 = NowNs();
    o.times.Add(item, static_cast<double>(t1 - t0));
    o.busy_s += static_cast<double>(t1 - t0) * 1e-9;
    ++o.calls;
    if (SpansEnabled()) {
      RecordSpan({trace, 0, trace, t0, t1,
                  op == kClassify ? classify_span_ : search_span_});
    }
  }

  void Search(size_t shape, size_t q, bool first) {
    const Query& query = inputs_.queries[shape][q];
    if (!first) {
      const SubsequenceMatch match =
          FindBestMatch(query.haystack, query.values, query.band);
      pass_.stable =
          pass_.stable && match.position == pass_.answers[shape][q].position;
      return;
    }
    SearchStats stats;
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    pass_.answers[shape][q] = FindBestMatch(
        query.haystack, query.values, query.band, CostKind::kSquared,
        &stats);
    const obs::MetricsSnapshot after = obs::SnapshotCounters();
    AddSearchStats(stats, &pass_.search_stats);
    pass_.search_cells += CounterDelta(after, before, obs::Counter::kDtwCells);
    pass_.simd_blocks += CounterDelta(after, before, obs::Counter::kSimdBlocks);
    pass_.simd_tail +=
        CounterDelta(after, before, obs::Counter::kSimdScalarTail);
  }

  void Classify(size_t i, bool first) {
    const TimeSeries& query = inputs_.test[i];
    if (!first) {
      const Prediction prediction =
          classifier_.Classify(query.view(), nullptr, &workspace_);
      pass_.stable =
          pass_.stable && SamePrediction(prediction, pass_.predictions[i]);
      return;
    }
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    pass_.predictions[i] = classifier_.Classify(
        query.view(), &pass_.classify_stats, &workspace_);
    pass_.classify_cells += CounterDelta(obs::SnapshotCounters(), before,
                                         obs::Counter::kDtwCells);
    ++pass_.classify_stats.total;
    if (pass_.predictions[i].label == query.label()) {
      ++pass_.classify_stats.correct;
    }
  }

  const Inputs& inputs_;
  const AcceleratedNnClassifier& classifier_;
  size_t items_[kOps] = {};
  Pass pass_;
  DtwWorkspace workspace_;
  const uint32_t search_span_ = SpanName("mining.search");
  const uint32_t classify_span_ = SpanName("mining.classify");
};

Pass RunPass(const RunConfig& config, const Inputs& inputs,
             const AcceleratedNnClassifier& classifier, double seconds,
             const std::function<void()>& each_round) {
  return PassRunner(inputs, classifier).Run(config, seconds, each_round);
}

// The per-kernel timed loops over this workload's own candidates: windows
// of the haystack at seeded positions, against each query shape.
void KernelLoops(const RunConfig& config, const Inputs& inputs,
                 const Pass& pass, Report* report) {
  Rng rng(MixSeed(config.seed, 0x9E));
  const size_t candidates = config.Count("kernel_candidates");
  std::vector<double> kim;
  std::vector<double> keogh;
  std::vector<double> envelope;
  std::vector<double> abandoning;
  for (size_t s = 0; s < kShapes; ++s) {
    const Query& query = inputs.queries[s][0];
    const std::vector<double> q = ZNormalized(query.values);
    const Envelope q_envelope = ComputeEnvelope(q, query.band);
    std::vector<std::vector<double>> windows;
    for (size_t i = 0; i < candidates; ++i) {
      const size_t pos = rng.UniformInt(query.haystack.size() - q.size() + 1);
      std::vector<double> window(
          query.haystack.begin() + static_cast<ptrdiff_t>(pos),
          query.haystack.begin() + static_cast<ptrdiff_t>(pos + q.size()));
      ZNormalizeInPlace(window);
      windows.push_back(std::move(window));
    }
    // The abandon threshold a late candidate of this query meets: the
    // query's final best-so-far.
    const double threshold = pass.answers[s][0].distance;
    DtwBuffer buffer;
    kim.push_back(TimeLoop("core.lb_kim", candidates, 0.02, [&](size_t i) {
      return LbKimFl(q, windows[i]);
    }));
    keogh.push_back(TimeLoop("core.lb_keogh", candidates, 0.02,
                             [&](size_t i) {
                               return LbKeogh(q_envelope, windows[i]);
                             }));
    envelope.push_back(TimeLoop("core.envelope", 64, 0.02,
                                [&](size_t) {
                                  return ComputeEnvelope(q, query.band)
                                      .upper[0];
                                }) /
                       static_cast<double>(q.size()));
    abandoning.push_back(TimeLoop(
        "core.cdtw_abandoning", candidates, 0.05, [&](size_t i) {
          return CdtwDistanceAbandoning(q, windows[i], query.band, threshold,
                                        CostKind::kSquared, &buffer);
        }));
  }
  report->Add("core.lb_kim.ns_per_call", GeoMean(kim), "ns");
  report->Add("core.lb_keogh.ns_per_call", GeoMean(keogh), "ns");
  report->Add("core.envelope.ns_per_point", GeoMean(envelope), "ns");
  report->Add("core.cdtw_abandoning.ns_per_call", GeoMean(abandoning), "ns");
}

void CheckAnswers(const RunConfig& config, const Inputs& inputs,
                  const Pass& pass, Report* report) {
  report->Check(pass.stable, "a repeated search or classification disagreed "
                             "with its first answer");
  // FindBestMatch equals the unpruned scan on a haystack prefix, sized so
  // each checked query's naive scan stays near `check_cells` DP cells.
  for (size_t s = 0; s < kShapes; ++s) {
    const size_t checked = std::min(inputs.queries[s].size(),
                                    config.Count("check_searches"));
    for (size_t q = 0; q < checked; ++q) {
      const Query& query = inputs.queries[s][q];
      const double cells_per_window = static_cast<double>(
          query.values.size() * (2 * query.band + 1));
      const size_t prefix = std::min<size_t>(
          {query.haystack.size(),
           query.values.size() +
               static_cast<size_t>(config.Param("check_cells") /
                                   cells_per_window)});
      const std::span<const double> head(query.haystack.data(), prefix);
      const SubsequenceMatch fast =
          FindBestMatch(head, query.values, query.band);
      const SubsequenceMatch naive =
          FindBestMatchNaive(head, query.values, query.band);
      const double tolerance = 1e-9 * (1.0 + naive.distance);
      const std::string what = std::string(kShapeNames[s]) + " query " +
                               std::to_string(q) + ": ";
      report->Check(std::abs(fast.distance - naive.distance) <= tolerance,
                    what + "FindBestMatch " + std::to_string(fast.distance) +
                        " at " + std::to_string(fast.position) +
                        " vs naive " + std::to_string(naive.distance) +
                        " at " + std::to_string(naive.position) + " over " +
                        std::to_string(prefix) + " points");
      report->Check(pass.answers[s][q].distance <= naive.distance + tolerance,
                    what + "full-haystack match is worse than a prefix match");
    }
  }
  // The classifier's cascade equals brute-force 1-NN on a test subsample,
  // through Evaluate at the run's thread count.
  Dataset sample;
  Rng rng(MixSeed(config.seed, 0xAE));
  for (size_t i = 0; i < config.Count("check_queries"); ++i) {
    sample.Add(inputs.test[rng.UniformInt(inputs.test.size())]);
  }
  std::string error;
  report->Check(check::CheckCascadeExact(
                    inputs.train, sample,
                    BandOf(kGestureLength, kGestureWindow), CostKind::kSquared,
                    config.threads, 1e-9, &error),
                "classifier cascade vs brute force: " + error);
}

void AddKillFractions(const std::string& prefix, double total, double kim,
                      double keogh, double abandoned, double full,
                      Report* report) {
  report->Add(prefix + ".kim_kill_frac", Ratio(kim, total), "fraction");
  report->Add(prefix + ".keogh_kill_frac", Ratio(keogh, total), "fraction");
  report->Add(prefix + ".abandon_frac", Ratio(abandoned, total), "fraction");
  report->Add(prefix + ".full_dtw_frac", Ratio(full, total), "fraction");
}

}  // namespace

void RunCascadeSearch(const RunConfig& config, Report* report) {
  // Set-up: the classifier's envelope index over the train set. Built once
  // for the run and again at the start of every round, as a spare that is
  // thrown away; the median is reported. Spreading the builds over the
  // run, instead of timing them back to back in its first second, keeps
  // a slow spell of a shared virtual machine from setting all of them. Each
  // build frees the previous spare first and so reuses warm memory:
  // faulting in fresh pages varied in cost by half from minute to minute.
  const Inputs inputs = MakeInputs(config);
  std::vector<double> setup_s;
  const auto build = [&](std::unique_ptr<AcceleratedNnClassifier>* into) {
    into->reset();
    const int64_t t0 = NowNs();
    *into = std::make_unique<AcceleratedNnClassifier>(
        inputs.train, BandOf(kGestureLength, kGestureWindow));
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  std::unique_ptr<AcceleratedNnClassifier> classifier;
  build(&classifier);
  std::unique_ptr<AcceleratedNnClassifier> spare;
  const auto each_round = [&] { build(&spare); };

  Pass pass;
  double overhead = 0.0;
  if (config.trace) {
    const Pass untraced = RunPass(config, inputs, *classifier,
                                  config.seconds / 2.0, each_round);
    EnableSpans(true);
    pass = RunPass(config, inputs, *classifier, config.seconds / 2.0,
                   each_round);
    overhead = 1.0 - pass.rate() / untraced.rate();
  } else {
    pass = RunPass(config, inputs, *classifier, config.seconds, each_round);
  }
  spare.reset();

  // Traced run only: kernel loops, and the classifier's Evaluate at 1, 2
  // and 4 threads (the 1-thread row is the scaling baseline).
  std::vector<double> evaluate_s;
  obs::MetricsSnapshot pool;
  if (config.trace) {
    KernelLoops(config, inputs, pass, report);
    const uint32_t span = SpanName("mining.classify.evaluate");
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      ScopedSpan scope(span, 0, NewSpanId());
      const int64_t t0 = NowNs();
      classifier->Evaluate(inputs.test, threads);
      evaluate_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    }
    pool = obs::SnapshotCounters() - before;
  }
  EnableSpans(false);
  CheckAnswers(config, inputs, pass, report);

  // End-to-end metrics: geometric means over the three op classes.
  std::vector<double> p50_ms;
  std::vector<double> tail_ms;
  uint64_t calls = 0;
  for (size_t op = 0; op < kOps; ++op) {
    const ItemTimes& times = pass.ops[op].times;
    calls += times.calls();
    p50_ms.push_back(times.QuantileMs(0.5));
    tail_ms.push_back(times.TailMs());
    report->Add(std::string(kOpNames[op]) + "_per_s", times.Rate(), "1/s",
                times.calls());
    report->Add(std::string(kOpNames[op]) + "_p50_ms", p50_ms.back(), "ms",
                times.calls());
    report->Add(std::string(kOpNames[op]) + "_tail_ms", tail_ms.back(), "ms",
                times.calls());
  }
  report->Add("ops_per_s", pass.rate(), "1/s", calls);
  report->Add("p50_ms", GeoMean(p50_ms), "ms", calls);
  report->Add("tail_ms", GeoMean(tail_ms), "ms", calls);
  AddSetup(setup_s, report);
  report->Add("peak_rss_mb", PeakRssMb(0), "MB");
  report->Add("search_points_per_s",
              GeoMean({pass.ops[0].times.Rate(), pass.ops[1].times.Rate()}) *
                  config.Param("haystack_points"),
              "points/s", pass.ops[0].calls + pass.ops[1].calls);
  report->Add("classify_queries_per_s", pass.ops[kClassify].times.Rate(),
              "queries/s", pass.ops[kClassify].calls);
  report->Attempt(calls, 0);

  // Per-layer metrics.
  const SearchStats& ss = pass.search_stats;
  const double windows = static_cast<double>(ss.windows);
  AddKillFractions("mining.search", windows,
                   static_cast<double>(ss.pruned_by_kim),
                   static_cast<double>(ss.pruned_by_keogh),
                   static_cast<double>(ss.abandoned_dtw),
                   static_cast<double>(ss.full_dtw), report);
  report->Add("mining.search.cells_per_window",
              Ratio(pass.search_cells, windows), "cells");
  const ClassificationStats& cs = pass.classify_stats;
  AddKillFractions("mining.classify", static_cast<double>(cs.candidates),
                   static_cast<double>(cs.pruned_by_kim),
                   static_cast<double>(cs.pruned_by_keogh),
                   static_cast<double>(cs.abandoned_dtw),
                   static_cast<double>(cs.full_dtw), report);
  report->Add("mining.classify.cells_per_query",
              Ratio(pass.classify_cells, static_cast<double>(cs.total)),
              "cells");
  report->Add("mining.classify.accuracy",
              Ratio(static_cast<double>(cs.correct),
                    static_cast<double>(cs.total)),
              "fraction");
  report->Add("simd.vector_frac",
              Ratio(pass.simd_blocks, pass.simd_blocks + pass.simd_tail),
              "fraction");
  if (config.trace) {
    report->Add("common.pool.scaling_eff_t2",
                Ratio(evaluate_s[0], evaluate_s[1]) / 2.0, "fraction");
    report->Add("common.pool.scaling_eff_t4",
                Ratio(evaluate_s[0], evaluate_s[2]) / 4.0, "fraction");
    report->Add(
        "common.pool.queue_wait_us_per_task",
        Ratio(static_cast<double>(pool.Get(obs::Counter::kPoolQueueWaitNanos)) *
                  1e-3,
              static_cast<double>(pool.Get(obs::Counter::kPoolTasks))),
        "us");
    report->Add("trace.overhead_frac", overhead, "fraction");
  }
}

}  // namespace suite
}  // namespace bench
}  // namespace warp
