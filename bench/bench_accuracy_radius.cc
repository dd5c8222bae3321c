// Experiment companion — the Fig. 1(a) accuracy annotations.
//
// The paper annotates its FastDTW curves with the approximation quality
// figures from the original FastDTW paper (error shrinking as the radius
// grows) and "assumes the original claims are true". This harness
// verifies those claims against our implementations: mean and worst-case
// approximation error (the original paper's percent-error metric) of
// FastDTW_r relative to exact Full DTW, by radius, on two data families —
// plus the adversarial family, where the error does not decay.
//
// Flags: --pairs (30), --length (300), --json=<path>.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/common/statistics.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"
#include "warp/core/approx_error.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/adversarial.h"
#include "warp/gen/gesture.h"
#include "warp/gen/random_walk.h"

namespace warp {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int pairs = static_cast<int>(flags.GetCount("pairs", 30, 1));
  const size_t length = flags.GetCount("length", 300, 1);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "Fig. 1(a) annotations",
      "FastDTW approximation error vs radius on three data families");
  report.AddConfig("pairs", pairs);
  report.AddConfig("length", static_cast<int64_t>(length));

  PrintBanner("Fig. 1(a) annotations",
              "FastDTW approximation error vs radius (percent error "
              "relative to exact Full DTW)");

  // Pre-draw the pair pool.
  Rng rng(606);
  std::vector<std::pair<std::vector<double>, std::vector<double>>>
      walk_pairs;
  std::vector<std::pair<std::vector<double>, std::vector<double>>>
      gesture_pairs;
  gen::GestureOptions gesture_options;
  gesture_options.length = length;
  for (int p = 0; p < pairs; ++p) {
    walk_pairs.emplace_back(gen::RandomWalk(length, rng),
                            gen::RandomWalk(length, rng));
    gesture_pairs.emplace_back(
        gen::MakeGesture(p % gesture_options.num_classes, gesture_options,
                         rng)
            .values(),
        gen::MakeGesture((p + 1) % gesture_options.num_classes,
                         gesture_options, rng)
            .values());
  }

  TablePrinter table({"r", "walks mean err (%)", "walks max err (%)",
                      "gestures mean err (%)", "adversarial err (%)"});
  const gen::AdversarialTriple triple = gen::MakeAdversarialTriple();
  const double adversarial_exact = DtwDistance(triple.a, triple.b);

  for (size_t radius : {0u, 1u, 2u, 5u, 10u, 20u, 40u}) {
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    Stopwatch watch;
    auto sweep = [&](const auto& pool) {
      std::vector<double> errors;
      for (const auto& [x, y] : pool) {
        const double exact = DtwDistance(x, y);
        errors.push_back(
            ApproxErrorPercent(FastDtwDistance(x, y, radius), exact));
      }
      return errors;
    };
    const std::vector<double> walk_errors = sweep(walk_pairs);
    const std::vector<double> gesture_errors = sweep(gesture_pairs);
    const double adversarial_error = ApproxErrorPercent(
        FastDtwDistance(triple.a, triple.b, radius), adversarial_exact);
    report.AddCase("radius_" + std::to_string(radius),
                   SummarizeSamples({watch.ElapsedSeconds()}),
                   obs::CountersSince(before));
    table.AddRow({TablePrinter::FormatDouble(radius, 0),
                  TablePrinter::FormatDouble(Mean(walk_errors), 2),
                  TablePrinter::FormatDouble(
                      *std::max_element(walk_errors.begin(),
                                        walk_errors.end()),
                      2),
                  TablePrinter::FormatDouble(Mean(gesture_errors), 2),
                  TablePrinter::FormatDouble(adversarial_error, 0)});
  }
  table.Print();

  std::printf(
      "\nExpected shape: errors on natural data decay toward zero as r "
      "grows (the original FastDTW paper's claim, which the ICDE paper "
      "accepts) — while the adversarial pair's error stays catastrophic "
      "at every practical radius, because the coarse resolution committed "
      "to warping the wrong way (Appendix A).\n");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
