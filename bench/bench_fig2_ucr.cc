// Experiment E2 — paper Fig. 2 (the Case-A-dominance argument).
//
// Histograms over the 128 UCR-2018 datasets of (a) the optimal warping
// window w for 1-NN classification (found by brute-force LOOCV) and (b)
// the series length. The paper's reading: most series are shorter than
// 1,000 points and the best w is rarely above 10% — i.e., at least 99% of
// DTW use in the literature is Case A, where cDTW beats FastDTW outright.
// Regenerated from the bundled archive metadata snapshot.
//
// Flags: --bins-w (11), --bins-len (15), --json=<path>.

#include <algorithm>
#include <cstdio>
#include <string>

#include "harness/bench_flags.h"
#include "warp/common/statistics.h"
#include "warp/common/stopwatch.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"
#include "warp/ucr/ucr_metadata.h"

namespace warp {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int bins_w = static_cast<int>(flags.GetCount("bins-w", 11, 1));
  const int bins_len = static_cast<int>(flags.GetCount("bins-len", 15, 1));
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E2 / Fig. 2",
      "UCR-2018 archive: optimal-window and length distributions");
  report.AddConfig("bins_w", bins_w);
  report.AddConfig("bins_len", bins_len);

  PrintBanner("E2 / Fig. 2",
              "UCR-2018 archive: distribution of optimal warping window w "
              "and of series length (128 datasets)");

  const obs::MetricsSnapshot analysis_start = obs::SnapshotCounters();
  Stopwatch analysis_watch;
  const std::vector<double> windows = ucr::BestWindowPercents();
  const std::vector<double> lengths = ucr::SeriesLengths();

  Histogram window_hist(0.0, 22.0, bins_w);
  window_hist.AddAll(windows);
  std::printf("(a) optimal w (%% of N) for 1-NN cDTW\n%s\n",
              window_hist.Render().c_str());

  const double max_length =
      *std::max_element(lengths.begin(), lengths.end()) + 1.0;
  Histogram length_hist(0.0, max_length, bins_len);
  length_hist.AddAll(lengths);
  std::printf("(b) series length\n%s\n", length_hist.Render().c_str());

  // Table-1 census: which quadrant each archive dataset falls into.
  const auto census = ucr::CaseCensus();
  std::printf("Table-1 quadrant census of the archive:\n");
  for (size_t c = 0; c < census.size(); ++c) {
    std::printf("  case %s: %zu datasets (%.0f%%)\n",
                ucr::CaseName(static_cast<ucr::WarpingCase>(c)), census[c],
                100.0 * static_cast<double>(census[c]) / 128.0);
  }
  std::printf("\n");

  const SampleStats w_stats = ComputeStats(windows);
  const SampleStats len_stats = ComputeStats(lengths);
  size_t w_le10 = 0;
  for (double w : windows) {
    if (w <= 10.0) ++w_le10;
  }
  size_t len_lt1000 = 0;
  for (double length : lengths) {
    if (length < 1000.0) ++len_lt1000;
  }
  std::printf(
      "Summary:\n"
      "  optimal w: median %.0f%%, mean %.1f%%, max %.0f%%; %zu/128 (%.0f%%)"
      " are <= 10%%\n"
      "  length:    median %.0f, mean %.0f, max %.0f; %zu/128 (%.0f%%) are "
      "< 1,000\n"
      "Paper's reading: \"the best value for w is rarely above 10%%\" and "
      "\"majority ... less than 1,000 datapoints\" -> %s\n",
      w_stats.median, w_stats.mean, w_stats.max, w_le10,
      100.0 * static_cast<double>(w_le10) / 128.0, len_stats.median,
      len_stats.mean, len_stats.max, len_lt1000,
      100.0 * static_cast<double>(len_lt1000) / 128.0,
      (w_le10 > 96 && len_lt1000 > 64) ? "reproduced" : "NOT reproduced");
  report.AddCase("archive_analysis",
                 SummarizeSamples({analysis_watch.ElapsedSeconds()}),
                 obs::CountersSince(analysis_start));
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
