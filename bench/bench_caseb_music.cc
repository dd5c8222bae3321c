// Experiment E3 — paper Section 3.2 (Case B: long N, narrow W).
//
// Align a 4-minute studio song against a live rendition: chroma-energy
// series of length 24,000 (100 Hz), warping window w = 0.83% (the live
// version at most ~2 s ahead/behind). The paper reports
//   cDTW_0.83   45.6 ms
//   FastDTW_10 238.2 ms
//   FastDTW_40 350.9 ms
// each averaged over 1,000 runs. This harness reproduces the three rows
// with both FastDTW implementations (the reference-package port is timed
// with fewer repetitions; it is orders of magnitude slower at this N).
//
// Flags: --length (24000), --reps (10), --ref-reps (1), --warmup (1),
//        --skip-reference (false), --ref-r40 (false), --json=<path>.

#include <cstdio>
#include <string>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/chroma.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t length = flags.GetCount("length", 24000, 1);
  const int reps = static_cast<int>(flags.GetCount("reps", 10, 1));
  const int ref_reps = static_cast<int>(flags.GetCount("ref-reps", 1));
  const int warmup = static_cast<int>(flags.GetCount("warmup", 1));
  const bool skip_reference = flags.GetBool("skip-reference", false);
  const bool ref_r40 = flags.GetBool("ref-r40", false);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E3 / Section 3.2",
      "Music alignment (Case B): cDTW_0.83% vs FastDTW_10/40");
  report.AddConfig("length", static_cast<int64_t>(length));
  report.AddConfig("reps", reps);
  report.AddConfig("ref_reps", ref_reps);
  report.AddConfig("skip_reference", skip_reference);

  PrintBanner("E3 / Section 3.2",
              "Music alignment (Case B): N=24,000 chroma pair, "
              "cDTW_0.83% vs FastDTW_10 vs FastDTW_40");

  gen::ChromaOptions options;
  options.length = length;
  const auto [studio, live] = gen::MakePerformancePair(options);
  std::printf("series length N=%zu, %d repetitions (+%d warmup) per row\n\n",
              length, reps, warmup);

  double checksum = 0.0;
  DtwBuffer buffer;
  const TimingSummary cdtw = report.MeasureCase(
      "cdtw_0.83",
      [&] {
        checksum += CdtwDistanceFraction(studio, live, 0.0083,
                                         CostKind::kSquared, &buffer);
      },
      reps, warmup);
  const TimingSummary fast10 = report.MeasureCase(
      "fastdtw_opt_r10",
      [&] { checksum += FastDtwDistance(studio, live, 10); }, reps, warmup);
  const TimingSummary fast40 = report.MeasureCase(
      "fastdtw_opt_r40",
      [&] { checksum += FastDtwDistance(studio, live, 40); }, reps, warmup);

  TablePrinter table({"algorithm", "mean (ms)", "std (ms)", "min (ms)",
                      "paper (ms)"});
  auto add_row = [&table](const char* name, const TimingSummary& summary,
                          const char* paper) {
    table.AddRow({name, TablePrinter::FormatDouble(summary.mean_millis(), 1),
                  TablePrinter::FormatDouble(summary.stddev * 1e3, 1),
                  TablePrinter::FormatDouble(summary.min_millis(), 1),
                  paper});
  };
  add_row("cDTW_0.83%", cdtw, "45.6");
  add_row("FastDTW_10 (optimized)", fast10, "238.2");
  add_row("FastDTW_40 (optimized)", fast40, "350.9");

  TimingSummary ref10;
  if (!skip_reference) {
    ref10 = report.MeasureCase(
        "fastdtw_ref_r10",
        [&] { checksum += ReferenceFastDtw(studio, live, 10).distance; },
        ref_reps, 0);
    add_row("FastDTW_10 (reference)", ref10, "238.2");
    if (ref_r40) {
      // Opt-in: the reference package's radius-40 expansion does ~160M
      // hash-set inserts at this N and takes minutes.
      const TimingSummary ref40 = report.MeasureCase(
          "fastdtw_ref_r40",
          [&] { checksum += ReferenceFastDtw(studio, live, 40).distance; },
          ref_reps, 0);
      add_row("FastDTW_40 (reference)", ref40, "350.9");
    }
  }
  DoNotOptimize(checksum);
  table.Print();
  std::printf("\nWork counters:\n%s", report.CounterTable().c_str());

  if (!skip_reference) {
    std::printf(
        "\nShape check (vs the reference package, the paper's comparator): "
        "cDTW is %.0fx faster than FastDTW_10 (paper: 5.2x) -> cDTW %s\n",
        ref10.mean / cdtw.mean,
        cdtw.mean < ref10.mean ? "wins" : "LOSES (unexpected)");
  }
  std::printf(
      "Against our aggressively optimized FastDTW port: %.1fx (r=10) and "
      "%.1fx (r=40) — even a best-case FastDTW only ties vanilla cDTW here, "
      "while remaining approximate and unable to use lower bounds.\n",
      fast10.mean / cdtw.mean, fast40.mean / cdtw.mean);

  // Alignment sanity: the window really does absorb the tempo warp.
  const double at_window = CdtwDistanceFraction(studio, live, 0.0083);
  const double euclidean = EuclideanDistance(studio, live);
  std::printf("alignment sanity: cDTW_0.83%%=%.1f vs Euclidean=%.1f "
              "(warping absorbed: %s)\n",
              at_window, euclidean, at_window < euclidean ? "yes" : "NO");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
