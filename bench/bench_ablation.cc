// Ablation benchmarks for the design choices DESIGN.md calls out.
//
// Four questions, each answered with a measured table:
//   A. What does each rung of the exact-1-NN cascade buy?
//      (plain cDTW -> +early abandon -> +LB_Kim -> +LB_Keogh -> +both
//      directions)
//   B. LB_Keogh vs LB_Improved: tightness vs cost per candidate.
//   C. Does DtwBuffer reuse matter in tight loops?
//   D. What does the square-band integer fast path buy over the
//      generalized scaled-diagonal ranges? Both run on the row engine,
//      at bands 6 and 94.
//
// Flags: --length (315), --train (64), --test (32), --band-percent (10),
//        --reps (200), --json=<path>.

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/envelope.h"
#include "warp/core/lower_bounds.h"
#include "warp/gen/gesture.h"
#include "warp/gen/random_walk.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace bench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct CascadeConfig {
  const char* name;
  bool abandon = false;
  bool kim = false;
  bool keogh = false;
  bool keogh_reversed = false;
};

// Runs 1-NN for every test series against the train set under one
// cascade configuration; returns elapsed seconds and checks the
// predictions against the brute-force labels.
double RunCascade(const Dataset& train, const Dataset& test, size_t band,
                  const CascadeConfig& config,
                  const std::vector<int>& expected_labels) {
  std::vector<Envelope> train_envelopes;
  std::vector<Envelope> test_envelopes;
  if (config.keogh_reversed) {
    for (const auto& s : train.series()) {
      train_envelopes.push_back(ComputeEnvelope(s.view(), band));
    }
  }
  if (config.keogh) {
    for (const auto& s : test.series()) {
      test_envelopes.push_back(ComputeEnvelope(s.view(), band));
    }
  }

  Stopwatch watch;
  DtwBuffer buffer;
  for (size_t q = 0; q < test.size(); ++q) {
    const std::span<const double> query = test[q].view();
    double best = kInf;
    int best_label = -1;
    for (size_t i = 0; i < train.size(); ++i) {
      const std::span<const double> candidate = train[i].view();
      if (config.kim && LbKimFl(query, candidate) >= best) continue;
      if (config.keogh &&
          LbKeogh(test_envelopes[q], candidate, CostKind::kSquared, best) >=
              best) {
        continue;
      }
      if (config.keogh_reversed &&
          LbKeogh(train_envelopes[i], query, CostKind::kSquared, best) >=
              best) {
        continue;
      }
      double d;
      if (config.abandon) {
        d = CdtwDistanceAbandoning(query, candidate, band, best,
                                   CostKind::kSquared, &buffer);
      } else {
        d = CdtwDistance(query, candidate, band, CostKind::kSquared,
                         &buffer);
      }
      if (d < best) {
        best = d;
        best_label = train[i].label();
      }
    }
    if (best_label != expected_labels[q]) {
      std::fprintf(stderr, "ablation %s changed a prediction!\n",
                   config.name);
      std::exit(1);
    }
  }
  return watch.ElapsedSeconds();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t length = flags.GetCount("length", 315, 1);
  const size_t train_size = flags.GetCount("train", 64, 1);
  const size_t test_size = flags.GetCount("test", 32, 1);
  const size_t band_percent =
      static_cast<size_t>(flags.GetInt("band-percent", 10, 0, 100));
  const int reps = static_cast<int>(flags.GetCount("reps", 200, 1));
  const size_t threads = SingleCoreThreadsFlag(flags);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "Ablations",
      "Cascade rungs, bound tightness, buffer reuse, band fast path");
  report.AddConfig("threads", static_cast<int64_t>(threads));
  report.AddConfig("length", static_cast<int64_t>(length));
  report.AddConfig("train", static_cast<int64_t>(train_size));
  report.AddConfig("test", static_cast<int64_t>(test_size));
  report.AddConfig("band_percent", static_cast<int64_t>(band_percent));
  report.AddConfig("reps", reps);

  PrintBanner("Ablations",
              "What each engineering choice buys: cascade rungs, bound "
              "tightness, buffer reuse, band fast path");

  gen::GestureOptions options;
  options.length = length;
  options.warp_fraction = 0.1;
  options.noise_stddev = 0.4;
  options.seed = 314;
  const Dataset pool = gen::MakeGestureDataset(
      (train_size + test_size + 7) / 8 + 1, options);
  Dataset train;
  Dataset test;
  for (size_t i = 0; i < pool.size() && train.size() < train_size; ++i) {
    if (i % 3 != 0) train.Add(pool[i]);
  }
  for (size_t i = 0; i < pool.size() && test.size() < test_size; ++i) {
    if (i % 3 == 0) test.Add(pool[i]);
  }
  const size_t band = length * band_percent / 100;

  // Ground-truth predictions from the plain configuration.
  std::vector<int> expected;
  for (size_t q = 0; q < test.size(); ++q) {
    double best = kInf;
    int label = -1;
    for (size_t i = 0; i < train.size(); ++i) {
      const double d = CdtwDistance(test[q].view(), train[i].view(), band);
      if (d < best) {
        best = d;
        label = train[i].label();
      }
    }
    expected.push_back(label);
  }

  // --- A: cascade rungs ----------------------------------------------------
  const CascadeConfig configs[] = {
      {"plain cDTW", false, false, false, false},
      {"+ early abandon", true, false, false, false},
      {"+ LB_Kim", true, true, false, false},
      {"+ LB_Keogh", true, true, true, false},
      {"+ LB_Keogh reversed", true, true, true, true},
  };
  std::printf("A. exact 1-NN cascade (%zu train x %zu test, N=%zu, "
              "w=%zu%%):\n",
              train.size(), test.size(), length, band_percent);
  TablePrinter cascade_table({"configuration", "seconds", "speedup"});
  double baseline = -1.0;
  for (const CascadeConfig& config : configs) {
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    const double seconds = RunCascade(train, test, band, config, expected);
    report.AddCase(std::string("cascade: ") + config.name,
                   SummarizeSamples({seconds}), obs::CountersSince(before));
    if (baseline < 0) baseline = seconds;
    cascade_table.AddRow({config.name,
                          TablePrinter::FormatDouble(seconds, 3),
                          TablePrinter::FormatDouble(baseline / seconds, 1) +
                              "x"});
  }
  cascade_table.Print();

  // --- B: LB_Keogh vs LB_Improved -------------------------------------------
  Rng rng(111);
  const size_t lb_trials = 2000;
  std::vector<std::vector<double>> pairs_q;
  std::vector<std::vector<double>> pairs_c;
  for (size_t t = 0; t < lb_trials; ++t) {
    pairs_q.push_back(gen::RandomWalk(length, rng));
    pairs_c.push_back(gen::RandomWalk(length, rng));
  }
  double keogh_total = 0.0;
  double improved_total = 0.0;
  double dtw_total = 0.0;
  obs::MetricsSnapshot before = obs::SnapshotCounters();
  Stopwatch keogh_watch;
  for (size_t t = 0; t < lb_trials; ++t) {
    const Envelope env = ComputeEnvelope(pairs_q[t], band);
    keogh_total += LbKeogh(env, pairs_c[t]);
  }
  const double keogh_seconds = keogh_watch.ElapsedSeconds();
  report.AddCase("lb_keogh", SummarizeSamples({keogh_seconds}),
                 obs::CountersSince(before));
  before = obs::SnapshotCounters();
  Stopwatch improved_watch;
  for (size_t t = 0; t < lb_trials; ++t) {
    const Envelope env = ComputeEnvelope(pairs_q[t], band);
    improved_total += LbImproved(env, pairs_q[t], pairs_c[t], band);
  }
  const double improved_seconds = improved_watch.ElapsedSeconds();
  report.AddCase("lb_improved", SummarizeSamples({improved_seconds}),
                 obs::CountersSince(before));
  DtwBuffer buffer;
  for (size_t t = 0; t < lb_trials; ++t) {
    dtw_total += CdtwDistance(pairs_q[t], pairs_c[t], band,
                              CostKind::kSquared, &buffer);
  }
  std::printf("\nB. bound tightness over %zu random pairs (share of the "
              "true cDTW distance captured):\n", lb_trials);
  std::printf("   LB_Keogh    %5.1f%% tight, %6.1f us/pair\n",
              100.0 * keogh_total / dtw_total,
              keogh_seconds * 1e6 / static_cast<double>(lb_trials));
  std::printf("   LB_Improved %5.1f%% tight, %6.1f us/pair\n",
              100.0 * improved_total / dtw_total,
              improved_seconds * 1e6 / static_cast<double>(lb_trials));

  // --- C: buffer reuse -------------------------------------------------------
  const std::vector<double> x = gen::RandomWalk(945, rng);
  const std::vector<double> y = gen::RandomWalk(945, rng);
  double checksum = 0.0;
  before = obs::SnapshotCounters();
  Stopwatch no_reuse;
  for (int r = 0; r < reps; ++r) checksum += CdtwDistance(x, y, 38);
  const double no_reuse_seconds = no_reuse.ElapsedSeconds();
  report.AddCase("buffer_fresh", SummarizeSamples({no_reuse_seconds}),
                 obs::CountersSince(before));
  before = obs::SnapshotCounters();
  Stopwatch reuse;
  for (int r = 0; r < reps; ++r) {
    checksum += CdtwDistance(x, y, 38, CostKind::kSquared, &buffer);
  }
  const double reuse_seconds = reuse.ElapsedSeconds();
  report.AddCase("buffer_reused", SummarizeSamples({reuse_seconds}),
                 obs::CountersSince(before));
  DoNotOptimize(checksum);
  std::printf("\nC. DtwBuffer reuse at N=945, w=4%% (%d calls): fresh "
              "allocations %.1f ms vs reused %.1f ms (%.0f%% saved)\n",
              reps, no_reuse_seconds * 1e3, reuse_seconds * 1e3,
              100.0 * (no_reuse_seconds - reuse_seconds) / no_reuse_seconds);

  // --- D: square fast path ----------------------------------------------------
  // The unequal-length call always takes the row engine; with SIMD on, a
  // wide enough square band takes the anti-diagonal wavefront instead, so
  // SIMD is off here to compare the two row ranges alone. Band 6 (widest
  // diagonal 13, below simd::kWavefrontAutoMinWidth) is where square
  // inputs stay on the row engine in auto mode too.
  const std::vector<double> y_off = gen::RandomWalk(944, rng);
  const simd::ScopedSimdMode row_engine(simd::SimdMode::kOff);
  std::printf("D. band ranges at N=945 on the row engine (%d calls each):\n",
              reps);
  for (const size_t band : {size_t{6}, size_t{94}}) {
    const std::string suffix = "_w" + std::to_string(band);
    before = obs::SnapshotCounters();
    Stopwatch square;
    for (int r = 0; r < reps; ++r) {
      checksum += CdtwDistance(x, y, band, CostKind::kSquared, &buffer);
    }
    const double square_seconds = square.ElapsedSeconds();
    report.AddCase("band_square" + suffix, SummarizeSamples({square_seconds}),
                   obs::CountersSince(before));
    before = obs::SnapshotCounters();
    Stopwatch general;
    for (int r = 0; r < reps; ++r) {
      checksum += CdtwDistance(x, y_off, band, CostKind::kSquared, &buffer);
    }
    const double general_seconds = general.ElapsedSeconds();
    report.AddCase("band_general" + suffix,
                   SummarizeSamples({general_seconds}),
                   obs::CountersSince(before));
    std::printf("   band %3zu: square integer fast path %.1f ms vs "
                "generalized scaled-diagonal %.1f ms (%+.0f%%)\n",
                band, square_seconds * 1e3, general_seconds * 1e3,
                100.0 * (general_seconds - square_seconds) / square_seconds);
  }
  DoNotOptimize(checksum);
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
