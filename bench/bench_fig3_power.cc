// Experiment E4 — paper Fig. 3 (the Case-C motivating example).
//
// Two midnight-to-1AM residential power-demand traces containing the same
// dishwasher program at different start times (the owner schedules it for
// the cheap-electricity window). The conserved three-peak pattern can be
// aligned, but only with a wide warping window: the paper estimates
// W = 34% from the peak offsets and rounds to 40%. This harness renders
// the two days, estimates W from the optimal alignment, and shows the
// narrow-window/wide-window contrast.
//
// Flags: --length (450), --shift (153), --json=<path>.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/gen/power_demand.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

// Compact ASCII sparkline of a series (one char per bucket).
std::string Sparkline(std::span<const double> values, size_t width) {
  static constexpr char kLevels[] = " .:-=+*#%@";
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double range = hi > lo ? hi - lo : 1.0;
  std::string out;
  const size_t bucket = std::max<size_t>(1, values.size() / width);
  for (size_t start = 0; start < values.size(); start += bucket) {
    double peak = values[start];
    for (size_t k = start; k < std::min(values.size(), start + bucket); ++k) {
      peak = std::max(peak, values[k]);
    }
    const int level = static_cast<int>((peak - lo) / range * 9.0);
    out += kLevels[level];
  }
  return out;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t length = flags.GetCount("length", 450, 1);
  const size_t shift = flags.GetCount("shift", 153);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E4 / Fig. 3",
      "Power-demand motivating example: W estimate from the alignment");
  report.AddConfig("length", static_cast<int64_t>(length));
  report.AddConfig("shift", static_cast<int64_t>(shift));

  PrintBanner("E4 / Fig. 3",
              "Electrical power demand, midnight-1AM (8 s sampling, "
              "N=450): the same dishwasher program shifted by 153 samples");

  Rng rng(333);
  const TimeSeries day1 = gen::MakeDishwasherNight(length, 20, rng);
  const TimeSeries day2 = gen::MakeDishwasherNight(
      length, std::min(20 + shift, gen::MaxProgramStart(length)), rng);

  std::printf("day 1: %s\n", Sparkline(day1.view(), 90).c_str());
  std::printf("day 2: %s\n\n", Sparkline(day2.view(), 90).c_str());

  // Estimate W the way the paper does: from the alignment's maximum
  // diagonal deviation.
  obs::MetricsSnapshot before = obs::SnapshotCounters();
  Stopwatch watch;
  const DtwResult alignment = Dtw(day1.view(), day2.view());
  report.AddCase("full_dtw", SummarizeSamples({watch.ElapsedSeconds()}),
                 obs::CountersSince(before));
  const double w_estimate = 100.0 *
                            static_cast<double>(
                                alignment.path.MaxDiagonalDeviation()) /
                            static_cast<double>(length);
  std::printf("optimal alignment deviates up to %u samples -> W estimate "
              "%.0f%% of N (paper: 153/450 = 34%%, rounded up to 40%%)\n\n",
              alignment.path.MaxDiagonalDeviation(), w_estimate);

  std::printf("distance vs window width:\n");
  before = obs::SnapshotCounters();
  watch.Restart();
  for (double w : {0.0, 0.05, 0.10, 0.20, 0.34, 0.40, 1.0}) {
    const double d = CdtwDistanceFraction(day1.view(), day2.view(), w);
    std::printf("  cDTW_%-4.0f%%  %10.2f\n", w * 100.0, d);
  }
  report.AddCase("cdtw_sweep", SummarizeSamples({watch.ElapsedSeconds()}),
                 obs::CountersSince(before));
  const double narrow = CdtwDistanceFraction(day1.view(), day2.view(), 0.05);
  const double wide = CdtwDistanceFraction(day1.view(), day2.view(), 0.40);
  std::printf("\nShape check: the conserved pattern aligns only with a wide "
              "window (cDTW_40%% = %.2f << cDTW_5%% = %.2f): %s\n",
              wide, narrow, wide < narrow ? "reproduced" : "NOT reproduced");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
