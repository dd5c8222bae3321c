// Experiment E5 — paper Fig. 4 (Case C: short N, wide W).
//
// The paper repeats the Fig. 1 experiment with random walks of length 450
// (the electrical-power-demand setting) and warping windows up to 40%,
// over all 499,500 pairs of 1,000 examples. Random walks are used
// verbatim ("the timing for both algorithms does not depend on the data
// itself"). Same sampling/extrapolation scheme as bench_fig1_uwave, and
// the same two FastDTW implementations (reference-package port as the
// headline comparator, our optimized port as the stress test).
//
// Flags: --exemplars (default 40), --ref-exemplars (10), --total (1000),
//        --length (450), --step (8), --max (40), --json=<path>.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "harness/pairwise.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/random_walk.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t exemplars = flags.GetCount("exemplars", 40, 1);
  const size_t ref_exemplars = flags.GetCount("ref-exemplars", 10);
  const size_t total = flags.GetCount("total", 1000, 1);
  const size_t length = flags.GetCount("length", 450, 1);
  const int step = static_cast<int>(flags.GetCount("step", 8, 1));
  const int max_setting = static_cast<int>(flags.GetCount("max", 40));
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E5 / Fig. 4",
      "All-pairs time (Case C): FastDTW_r vs cDTW_w, r and w in 0..40");
  report.AddConfig("exemplars", static_cast<int64_t>(exemplars));
  report.AddConfig("ref_exemplars", static_cast<int64_t>(ref_exemplars));
  report.AddConfig("total", static_cast<int64_t>(total));
  report.AddConfig("length", static_cast<int64_t>(length));
  report.AddConfig("step", step);
  report.AddConfig("max", max_setting);

  const auto record_pairwise = [&report](const std::string& name,
                                         const PairwiseTiming& timing,
                                         const obs::MetricsSnapshot& before) {
    report.AddCase(name,
                   PerOpSummary(timing.seconds,
                                static_cast<int64_t>(timing.pairs_timed)),
                   obs::CountersSince(before));
  };

  PrintBanner("E5 / Fig. 4",
              "All-pairs time, random walks (N=450): FastDTW_r vs cDTW_w, "
              "r and w in 0..40");

  const Dataset dataset =
      gen::RandomWalkDataset(std::max(exemplars, ref_exemplars), length,
                             2024);
  const uint64_t full_pairs = TotalPairs(total);
  std::printf("length N=%zu; extrapolating to %llu comparisons (the "
              "paper's 1,000-example dataset)\n\n",
              length, static_cast<unsigned long long>(full_pairs));

  TablePrinter fast_table({"r", "reference us/cmp", "reference total (s)",
                           "optimized us/cmp", "optimized total (s)"});
  std::vector<double> ref_extrapolated;
  std::vector<double> opt_extrapolated;
  for (int r = 0; r <= max_setting; r += step) {
    const std::string suffix = "_r" + std::to_string(r);
    obs::MetricsSnapshot before = obs::SnapshotCounters();
    const PairwiseTiming reference = TimeAllPairs(
        dataset, ref_exemplars,
        [r](std::span<const double> a, std::span<const double> b) {
          return ReferenceFastDtw(a, b, static_cast<size_t>(r)).distance;
        });
    record_pairwise("fastdtw_ref" + suffix, reference, before);
    before = obs::SnapshotCounters();
    const PairwiseTiming optimized = TimeAllPairs(
        dataset, exemplars,
        [r](std::span<const double> a, std::span<const double> b) {
          return FastDtwDistance(a, b, static_cast<size_t>(r));
        });
    record_pairwise("fastdtw_opt" + suffix, optimized, before);
    ref_extrapolated.push_back(reference.ExtrapolatedSeconds(full_pairs));
    opt_extrapolated.push_back(optimized.ExtrapolatedSeconds(full_pairs));
    fast_table.AddRow(
        {TablePrinter::FormatDouble(r, 0),
         TablePrinter::FormatDouble(reference.micros_per_pair(), 1),
         TablePrinter::FormatDouble(ref_extrapolated.back(), 1),
         TablePrinter::FormatDouble(optimized.micros_per_pair(), 1),
         TablePrinter::FormatDouble(opt_extrapolated.back(), 1)});
  }
  std::printf("(a) FastDTW_r\n");
  fast_table.Print();

  TablePrinter cdtw_table(
      {"w (%)", "us/comparison", "extrapolated total (s)"});
  std::vector<double> cdtw_extrapolated;
  for (int w = 0; w <= max_setting; w += step) {
    DtwBuffer buffer;
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    const PairwiseTiming timing = TimeAllPairs(
        dataset, exemplars,
        [w, &buffer](std::span<const double> a, std::span<const double> b) {
          return CdtwDistanceFraction(a, b, w / 100.0, CostKind::kSquared,
                                      &buffer);
        });
    record_pairwise("cdtw_w" + std::to_string(w), timing, before);
    cdtw_extrapolated.push_back(timing.ExtrapolatedSeconds(full_pairs));
    cdtw_table.AddRow(
        {TablePrinter::FormatDouble(w, 0),
         TablePrinter::FormatDouble(timing.micros_per_pair(), 1),
         TablePrinter::FormatDouble(cdtw_extrapolated.back(), 1)});
  }
  std::printf("\n(b) cDTW_w\n");
  cdtw_table.Print();

  // Paper's claim for Case C: even at the maximal window the exact cDTW
  // curve sits below FastDTW's coarsest setting.
  std::printf(
      "\nShape checks:\n"
      "  cDTW_%d %7.1f s vs FastDTW_0 (reference) %7.1f s -> cDTW %s\n"
      "  cDTW_%d %7.1f s vs FastDTW_0 (optimized) %7.1f s -> %s\n",
      max_setting, cdtw_extrapolated.back(), ref_extrapolated.front(),
      cdtw_extrapolated.back() <= ref_extrapolated.front()
          ? "wins across the whole sweep"
          : "LOSES at the widest window (unexpected)",
      max_setting, cdtw_extrapolated.back(), opt_extrapolated.front(),
      cdtw_extrapolated.back() <= opt_extrapolated.front()
          ? "cDTW wins even against the optimized port"
          : "the optimized FastDTW_0 edge exists only because it computes "
            "a far coarser (approximate!) answer");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
