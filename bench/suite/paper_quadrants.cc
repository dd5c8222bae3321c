// Workload paper_quadrants: the paper's headline comparison.
//
// Closed loop on one thread, as in the paper. Every pair of a fixed,
// seeded list from each Table-1 quadrant runs through exact cDTW_w, the
// optimized FastDTW_r and the reference FastDTW_r port; each
// (algorithm, quadrant) cell gets a fixed share of the run. All the work
// sits in the DP kernels (core, simd) and none in a pruning cascade or the
// serving stack. A short second pass repeats the Case-A cDTW all-pairs
// sweep at 1, 2 and 4 threads (common's ThreadPool), whose checksums must
// be bitwise equal.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness/pairwise.h"
#include "suite.h"
#include "warp/check/exactness_oracle.h"
#include "warp/common/random.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/chroma.h"
#include "warp/gen/fall.h"
#include "warp/gen/gesture.h"
#include "warp/gen/power_demand.h"

namespace warp {
namespace bench {
namespace suite {
namespace {

struct Pair {
  std::vector<double> x;
  std::vector<double> y;
};

// One Table-1 quadrant: the domain's window w and the FastDTW radius r
// used against it, as in bench_table1_cases.
struct Quadrant {
  std::string letter;
  double window_fraction = 0.0;
  size_t radius = 0;
  std::vector<Pair> pairs;
};

struct Inputs {
  std::vector<Quadrant> quadrants;
  Dataset sweep;  // Case-A gestures for the thread-scaling pass.
};

constexpr size_t kGestureLength = 315;
constexpr size_t kPowerLength = 450;
constexpr int kGestureClasses = 8;

Inputs MakeInputs(const RunConfig& config) {
  Inputs inputs;
  gen::GestureOptions gesture;
  gesture.length = kGestureLength;
  gesture.seed = MixSeed(config.seed, 0xA0);

  Quadrant a{"A", 0.05, 10, {}};
  Rng rng_a(MixSeed(config.seed, 0xA1));
  for (size_t p = 0; p < config.Count("pairs_a"); ++p) {
    const int cx = static_cast<int>(rng_a.UniformInt(kGestureClasses));
    const int cy = static_cast<int>(rng_a.UniformInt(kGestureClasses));
    a.pairs.push_back({gen::MakeGesture(cx, gesture, rng_a).values(),
                       gen::MakeGesture(cy, gesture, rng_a).values()});
  }

  Quadrant b{"B", 0.0083, 10, {}};
  for (size_t p = 0; p < config.Count("pairs_b"); ++p) {
    gen::ChromaOptions chroma;
    chroma.length = config.Count("length_b");
    chroma.seed = MixSeed(config.seed, 0xB0 + p);
    auto [studio, live] = gen::MakePerformancePair(chroma);
    b.pairs.push_back({std::move(studio), std::move(live)});
  }

  Quadrant c{"C", 0.40, 20, {}};
  Rng rng_c(MixSeed(config.seed, 0xC1));
  const size_t max_start = gen::MaxProgramStart(kPowerLength);
  for (size_t p = 0; p < config.Count("pairs_c"); ++p) {
    const TimeSeries x = gen::MakeDishwasherNight(
        kPowerLength, rng_c.UniformInt(max_start + 1), rng_c);
    const TimeSeries y = gen::MakeDishwasherNight(
        kPowerLength, rng_c.UniformInt(max_start + 1), rng_c);
    c.pairs.push_back({x.values(), y.values()});
  }

  Quadrant d{"D", 1.0, 40, {}};
  Rng rng_d(MixSeed(config.seed, 0xD1));
  for (size_t p = 0; p < config.Count("pairs_d"); ++p) {
    auto [early, late] =
        gen::MakeFallPair(config.Param("fall_seconds"), 100.0, rng_d);
    d.pairs.push_back({std::move(early), std::move(late)});
  }
  inputs.quadrants = {std::move(a), std::move(b), std::move(c), std::move(d)};

  Rng rng_sweep(MixSeed(config.seed, 0xE1));
  const size_t sweep = config.Count("sweep_series");
  for (size_t i = 0; i < sweep; ++i) {
    inputs.sweep.Add(gen::MakeGesture(static_cast<int>(i % kGestureClasses),
                                      gesture, rng_sweep));
  }
  return inputs;
}

enum Algo { kCdtw, kFastDtw, kFastDtwRef, kNumAlgos };
constexpr const char* kAlgoNames[kNumAlgos] = {"cdtw", "fastdtw",
                                               "fastdtw_ref"};
// Each algorithm's cells get time in proportion to its weight. A pair's
// cost is its fastest call, which takes several calls spread over the run
// to find: the reference port gets the most time and still makes only
// about five calls of its B pair, cDTW makes hundreds of calls per pair.
constexpr double kAlgoWeights[kNumAlgos] = {0.3, 0.6, 2.1};
// Share of the run the cells get; the thread pass takes the rest.
constexpr double kCellsShare = 0.9;
// Every cell makes at least this many calls, however short the run.
constexpr size_t kMinCalls = 2;

double Compare(Algo algo, const Quadrant& quadrant, const Pair& pair,
               DtwBuffer* buffer) {
  switch (algo) {
    case kCdtw:
      return CdtwDistanceFraction(pair.x, pair.y, quadrant.window_fraction,
                                  CostKind::kSquared, buffer);
    case kFastDtw:
      return FastDtwDistance(pair.x, pair.y, quadrant.radius);
    case kFastDtwRef:
    case kNumAlgos:
      break;
  }
  return ReferenceFastDtw(pair.x, pair.y, quadrant.radius).distance;
}


// One timed (algorithm, quadrant) cell: calls round-robin over the
// quadrant's pairs.
struct Cell {
  Algo algo = kCdtw;
  const Quadrant* quadrant = nullptr;
  size_t next_pair = 0;
  DtwBuffer buffer;
  ItemTimes times;
  std::vector<std::pair<size_t, double>> answers;  // (pair, distance)
  double busy_s = 0.0;
  double dtw_cells = 0.0;
};

// Runs `cell` until its busy time reaches `until_s`, as one span.
void Advance(Cell* cell, double until_s, uint32_t segment_span,
             uint32_t call_span) {
  if (cell->busy_s >= until_s) return;
  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  const uint64_t trace = NewSpanId();
  ScopedSpan scope(segment_span, 0, trace);
  const Quadrant& quadrant = *cell->quadrant;
  while (cell->busy_s < until_s) {
    const size_t p = cell->next_pair;
    cell->next_pair = (p + 1) % quadrant.pairs.size();
    const int64_t t0 = NowNs();
    const double distance =
        Compare(cell->algo, quadrant, quadrant.pairs[p], &cell->buffer);
    const int64_t t1 = NowNs();
    DoNotOptimize(distance);
    cell->times.Add(p, static_cast<double>(t1 - t0));
    cell->busy_s += static_cast<double>(t1 - t0) * 1e-9;
    if (cell->algo == kFastDtwRef) cell->answers.emplace_back(p, distance);
    if (SpansEnabled()) {
      RecordSpan({NewSpanId(), scope.id(), trace, t0, t1, call_span});
    }
  }
  cell->dtw_cells += CounterDelta(obs::SnapshotCounters(), before,
                                  obs::Counter::kDtwCells);
}

// All twelve cells, `budget_s[algo]` of calls each. The cells take turns
// in `rounds` rounds, so a slow spell of the machine is spread over all
// of them instead of landing on one. `each_round` runs before every round.
std::vector<Cell> RunCells(const Inputs& inputs,
                           const double (&budget_s)[kNumAlgos], size_t rounds,
                           const std::function<void()>& each_round) {
  const uint32_t segment_span = SpanName("paper.segment");
  uint32_t call_span[kNumAlgos];
  const size_t nq = inputs.quadrants.size();
  std::vector<Cell> cells(kNumAlgos * nq);
  for (size_t algo = 0; algo < kNumAlgos; ++algo) {
    call_span[algo] = SpanName(std::string("core.") + kAlgoNames[algo]);
    for (size_t q = 0; q < nq; ++q) {
      Cell& cell = cells[algo * nq + q];
      cell.algo = static_cast<Algo>(algo);
      cell.quadrant = &inputs.quadrants[q];
      cell.times = ItemTimes(inputs.quadrants[q].pairs.size(), kFastestCall);
    }
  }
  for (size_t round = 1; round <= rounds; ++round) {
    each_round();
    for (Cell& cell : cells) {
      const double until = budget_s[cell.algo] * static_cast<double>(round) /
                           static_cast<double>(rounds);
      Advance(&cell, until, segment_span, call_span[cell.algo]);
    }
  }
  for (Cell& cell : cells) {
    while (cell.times.calls() < kMinCalls) {
      Advance(&cell, cell.busy_s + 1e-9, segment_span, call_span[cell.algo]);
    }
  }
  return cells;
}

double GeoMeanRate(const std::vector<Cell>& cells, size_t begin, size_t end) {
  std::vector<double> rates;
  for (size_t i = begin; i < end; ++i) rates.push_back(cells[i].times.Rate());
  return GeoMean(rates);
}

double GeoMeanRate(const std::vector<Cell>& cells) {
  return GeoMeanRate(cells, 0, cells.size());
}

// The Case-A cDTW all-pairs sweep at 1, 2 and 4 threads through
// TimeAllPairsParallel; the checksums must be bitwise equal. The thread
// counts take turns, and each row is the lower quartile of its sweeps:
// how many cores a shared virtual machine delivers changes from second to
// second with the load of other tenants, and a row measured in one block
// would measure that instead of the pool.
struct ThreadPass {
  std::vector<std::pair<size_t, double>> rows;  // (threads, seconds)
  obs::MetricsSnapshot pool;  // Counter delta of the pass (1 thread runs
                              // inline and moves no pool counter).
};

ThreadPass RunThreadPass(const RunConfig& config, const Dataset& sweep,
                         Report* report) {
  const uint32_t sweep_span = SpanName("common.pool.sweep");
  const auto make_measure = [] {
    return [buffer = DtwBuffer()](std::span<const double> x,
                                  std::span<const double> y) mutable {
      return CdtwDistanceFraction(x, y, 0.05, CostKind::kSquared, &buffer);
    };
  };
  constexpr size_t kThreads[] = {1, 2, 4};
  std::vector<double> seconds[std::size(kThreads)];
  double checksum_1 = 0.0;
  const obs::MetricsSnapshot pool_before = obs::SnapshotCounters();
  for (size_t rep = 0; rep < config.Count("sweep_reps"); ++rep) {
    for (size_t t = 0; t < std::size(kThreads); ++t) {
      ScopedSpan scope(sweep_span, 0, NewSpanId());
      const PairwiseTiming timing = TimeAllPairsParallel(
          sweep, sweep.size(), kThreads[t], make_measure);
      seconds[t].push_back(timing.seconds);
      if (rep == 0 && t == 0) checksum_1 = timing.checksum;
      report->Check(timing.checksum == checksum_1,
                    "Case-A sweep checksum at " + std::to_string(kThreads[t]) +
                        " threads differs from 1 thread");
    }
  }
  ThreadPass pass;
  for (size_t t = 0; t < std::size(kThreads); ++t) {
    pass.rows.emplace_back(kThreads[t], Quantile(seconds[t], 0.25));
  }
  pass.pool = obs::SnapshotCounters() - pool_before;
  return pass;
}

// Untimed: per-pair work counts, which repeat exactly for a seed, and the
// checks on FastDTW's answers.
void CountAndCheck(const Inputs& inputs, const std::vector<Cell>& cells,
                   Report* report) {
  double simd_blocks = 0.0;
  double simd_tail = 0.0;
  double path_bytes = 0.0;
  double fastdtw_pairs = 0.0;
  for (size_t q = 0; q < inputs.quadrants.size(); ++q) {
    const Quadrant& quadrant = inputs.quadrants[q];
    DtwBuffer buffer;
    double cdtw_cells = 0.0;
    double fast_cells = 0.0;
    std::vector<double> fast_distance;
    for (const Pair& pair : quadrant.pairs) {
      obs::MetricsSnapshot before = obs::SnapshotCounters();
      Compare(kCdtw, quadrant, pair, &buffer);
      obs::MetricsSnapshot after = obs::SnapshotCounters();
      cdtw_cells += CounterDelta(after, before, obs::Counter::kDtwCells);
      simd_blocks += CounterDelta(after, before, obs::Counter::kSimdBlocks);
      simd_tail += CounterDelta(after, before, obs::Counter::kSimdScalarTail);
      before = after;
      fast_distance.push_back(Compare(kFastDtw, quadrant, pair, &buffer));
      after = obs::SnapshotCounters();
      fast_cells += CounterDelta(after, before, obs::Counter::kFastDtwCells);
      path_bytes +=
          CounterDelta(after, before, obs::Counter::kPathEngineBytes);
      fastdtw_pairs += 1.0;
    }
    const double n = static_cast<double>(quadrant.pairs.size());
    const std::string& x = quadrant.letter;
    report->Add("core.cdtw.cells_per_pair." + x, cdtw_cells / n, "cells");
    report->Add("core.fastdtw.cells_per_pair." + x, fast_cells / n, "cells");
    report->Add("core.fastdtw.cells_ratio." + x, Ratio(fast_cells, cdtw_cells),
                "ratio");

    // Optimized and reference FastDTW agree on every reference-timed pair
    // (the tolerance of tests/core/fastdtw_reference_test.cc).
    const Cell& ref_cell = cells[kFastDtwRef * inputs.quadrants.size() + q];
    for (const auto& [p, reference] : ref_cell.answers) {
      report->Check(std::abs(fast_distance[p] - reference) <=
                        0.05 * reference + 1e-6,
                    "quadrant " + x + " pair " + std::to_string(p) +
                        ": optimized FastDTW " +
                        std::to_string(fast_distance[p]) +
                        " vs reference " + std::to_string(reference));
    }
    // Admissibility on sampled A, C and D pairs (B's full DTW is too big).
    if (x == "B") continue;
    for (size_t p = 0; p < std::min<size_t>(2, quadrant.pairs.size()); ++p) {
      std::string error;
      report->Check(check::CheckFastDtwAdmissible(
                        quadrant.pairs[p].x, quadrant.pairs[p].y,
                        quadrant.radius, CostKind::kSquared, 1e-9, &error),
                    "quadrant " + x + " pair " + std::to_string(p) + ": " +
                        error);
    }
  }
  report->Add("core.fastdtw.path_bytes_per_pair",
              Ratio(path_bytes, fastdtw_pairs), "bytes");
  report->Add("simd.vector_frac",
              Ratio(simd_blocks, simd_blocks + simd_tail), "fraction");
}

}  // namespace

void RunPaperQuadrants(const RunConfig& config, Report* report) {
  // Set-up: generating every input. Timed once for the inputs the run
  // uses and again at the start of every round, into a copy that is
  // thrown away (cascade_search.cc explains why); the median is reported.
  std::vector<double> setup_s;
  Inputs spare;
  const auto set_up = [&](Inputs* into) {
    *into = Inputs();
    const int64_t t0 = NowNs();
    *into = MakeInputs(config);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  };
  Inputs inputs;
  set_up(&inputs);
  const auto each_round = [&] {
    for (size_t rep = 0; rep < config.Count("setup_per_round"); ++rep) {
      set_up(&spare);
    }
  };
  const size_t nq = inputs.quadrants.size();
  // A traced run measures twice, for half the time each.
  double weights = 0.0;
  for (const double weight : kAlgoWeights) weights += weight;
  const double run_s =
      (config.trace ? config.seconds / 2.0 : config.seconds) * kCellsShare;
  double cell_s[kNumAlgos];
  for (size_t algo = 0; algo < kNumAlgos; ++algo) {
    cell_s[algo] =
        run_s * kAlgoWeights[algo] / (weights * static_cast<double>(nq));
  }
  const size_t rounds = config.Count("rounds");

  std::vector<Cell> cells;
  double overhead = 0.0;
  if (config.trace) {
    const std::vector<Cell> untraced =
        RunCells(inputs, cell_s, rounds, each_round);
    EnableSpans(true);
    cells = RunCells(inputs, cell_s, rounds, each_round);
    overhead = 1.0 - GeoMeanRate(cells) / GeoMeanRate(untraced);
  } else {
    cells = RunCells(inputs, cell_s, rounds, each_round);
  }
  spare = Inputs();
  const ThreadPass threads = RunThreadPass(config, inputs.sweep, report);
  EnableSpans(false);
  CountAndCheck(inputs, cells, report);

  // End-to-end metrics: geometric means over the twelve cells, so every
  // (algorithm, quadrant) cell weighs the same.
  std::vector<double> p50_ms;
  std::vector<double> tail_ms;
  uint64_t calls = 0;
  double cdtw_cells = 0.0;
  double cdtw_busy_s = 0.0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const std::string& x = inputs.quadrants[i % nq].letter;
    p50_ms.push_back(cell.times.QuantileMs(0.5));
    tail_ms.push_back(cell.times.TailMs());
    calls += cell.times.calls();
    report->Add(std::string("core.") + kAlgoNames[cell.algo] +
                    ".ns_per_pair." + x,
                Ratio(1e9, cell.times.Rate()), "ns", cell.times.calls());
    if (cell.algo == kCdtw) {
      cdtw_cells += cell.dtw_cells;
      cdtw_busy_s += cell.busy_s;
    }
  }
  for (size_t algo = 0; algo < kNumAlgos; ++algo) {
    uint64_t row_calls = 0;
    for (size_t q = 0; q < nq; ++q) {
      row_calls += cells[algo * nq + q].times.calls();
    }
    report->Add(std::string(kAlgoNames[algo]) + "_pairs_per_s",
                GeoMeanRate(cells, algo * nq, (algo + 1) * nq), "pairs/s",
                row_calls);
  }
  report->Add("ops_per_s", GeoMeanRate(cells), "1/s", calls);
  report->Add("p50_ms", GeoMean(p50_ms), "ms", calls);
  report->Add("tail_ms", GeoMean(tail_ms), "ms", calls);
  AddSetup(setup_s, report);
  report->Add("peak_rss_mb", PeakRssMb(0), "MB");
  report->Attempt(calls, 0);

  // Per-layer metrics.
  report->Add("core.cdtw.cells_per_s", Ratio(cdtw_cells, cdtw_busy_s),
              "cells/s");
  const double t1 = threads.rows[0].second;
  report->Add("common.pool.scaling_eff_t2",
              Ratio(t1, threads.rows[1].second) / 2.0, "fraction");
  report->Add("common.pool.scaling_eff_t4",
              Ratio(t1, threads.rows[2].second) / 4.0, "fraction");
  report->Add(
      "common.pool.queue_wait_us_per_task",
      Ratio(static_cast<double>(
                threads.pool.Get(obs::Counter::kPoolQueueWaitNanos)) *
                1e-3,
            static_cast<double>(threads.pool.Get(obs::Counter::kPoolTasks))),
      "us");
  if (config.trace) report->Add("trace.overhead_frac", overhead, "fraction");

  for (const auto& [n, seconds] : threads.rows) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "thread pass: %zu thread(s) %.4f s per Case-A sweep of %zu "
                  "series (speedup %.2fx)",
                  n, seconds, inputs.sweep.size(), Ratio(t1, seconds));
    report->Note(line);
  }
}

}  // namespace suite
}  // namespace bench
}  // namespace warp
