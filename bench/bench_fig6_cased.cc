// Experiment E6 — paper Figs. 5 and 6 (Case D: long N, wide W).
//
// The "fall" thought experiment: early-fall vs late-fall traces of length
// L seconds at 100 Hz need ~100% warping to align, so cDTW must run
// unconstrained (cDTW_100). The paper sweeps L and finds the first length
// at which FastDTW_40 becomes faster than cDTW_100 (they report L = 4,
// N = 400) — the only crossover in the whole paper, and it occurs in a
// setting with no known real application. This harness reproduces the
// sweep for both FastDTW implementations and reports each crossover.
//
// Flags: --reps (20), --ref-reps (1), --radius (40), --max-seconds (64),
//        --skip-reference (false), --json=<path>.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/fall.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int reps = static_cast<int>(flags.GetCount("reps", 20, 1));
  const int ref_reps = static_cast<int>(flags.GetCount("ref-reps", 1));
  const size_t radius = flags.GetCount("radius", 40);
  const double max_seconds = flags.GetDouble("max-seconds", 64.0, 0.0);
  const bool skip_reference = flags.GetBool("skip-reference", false);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E6 / Figs. 5-6",
      "Fall alignment (Case D): cDTW_100 vs FastDTW_40 as L grows");
  report.AddConfig("reps", reps);
  report.AddConfig("ref_reps", ref_reps);
  report.AddConfig("radius", static_cast<int64_t>(radius));
  report.AddConfig("max_seconds", max_seconds);
  report.AddConfig("skip_reference", skip_reference);

  PrintBanner("E6 / Figs. 5-6",
              "Fall alignment (Case D): cDTW_100 (unconstrained) vs "
              "FastDTW_40 as the window length L grows");

  TablePrinter table({"L (s)", "N", "cDTW_100 (ms)", "FastDTW_40 opt (ms)",
                      "FastDTW_40 ref (ms)", "fastest"});
  double crossover_optimized = -1.0;
  double crossover_reference = -1.0;
  Rng rng(4242);
  for (double seconds = 1.0; seconds <= max_seconds; seconds *= 2.0) {
    const auto [early, late] = gen::MakeFallPair(seconds, 100.0, rng);
    const std::string suffix = " L=" + TablePrinter::FormatDouble(seconds, 0);
    double checksum = 0.0;
    DtwBuffer buffer;
    const TimingSummary exact = report.MeasureCase(
        "cdtw_100" + suffix,
        [&] {
          checksum += CdtwDistance(early, late, early.size(),
                                   CostKind::kSquared, &buffer);
        },
        reps);
    const TimingSummary fast = report.MeasureCase(
        "fastdtw_opt" + suffix,
        [&] { checksum += FastDtwDistance(early, late, radius); }, reps);
    TimingSummary reference;
    if (!skip_reference) {
      reference = report.MeasureCase(
          "fastdtw_ref" + suffix,
          [&] {
            checksum += ReferenceFastDtw(early, late, radius).distance;
          },
          ref_reps, 0);
    }
    DoNotOptimize(checksum);

    if (fast.mean < exact.mean && crossover_optimized < 0.0) {
      crossover_optimized = seconds;
    }
    if (!skip_reference && reference.mean < exact.mean &&
        crossover_reference < 0.0) {
      crossover_reference = seconds;
    }
    const char* fastest = "cDTW_100";
    if (fast.mean < exact.mean) fastest = "FastDTW_40 (opt)";
    table.AddRow({TablePrinter::FormatDouble(seconds, 1),
                  std::to_string(early.size()),
                  TablePrinter::FormatDouble(exact.mean_millis(), 3),
                  TablePrinter::FormatDouble(fast.mean_millis(), 3),
                  skip_reference
                      ? std::string("-")
                      : TablePrinter::FormatDouble(reference.mean_millis(), 3),
                  fastest});
  }
  table.Print();

  if (crossover_optimized > 0.0) {
    std::printf(
        "\nOptimized FastDTW_40 first beats cDTW_100 at L = %.1f s "
        "(N = %.0f); the paper reports L = 4 s (N = 400).\n",
        crossover_optimized, crossover_optimized * 100.0);
  } else {
    std::printf("\nOptimized FastDTW_40 never beat cDTW_100 up to L = %.0f "
                "s.\n",
                max_seconds);
  }
  if (!skip_reference) {
    if (crossover_reference > 0.0) {
      std::printf("Reference FastDTW_40 first beats cDTW_100 at L = %.1f s "
                  "(N = %.0f).\n",
                  crossover_reference, crossover_reference * 100.0);
    } else {
      std::printf("Reference FastDTW_40 never beat cDTW_100 in this sweep "
                  "— its constants are that large.\n");
    }
  }
  std::printf(
      "The claim being reproduced: a crossover exists only in this "
      "contrived Case D, and even past it FastDTW_40 returns an "
      "*approximation* of the cDTW_100 answer.\n");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
