// Experiment companion — paper Table 1: the four-quadrant map.
//
// One representative head-to-head per quadrant, each on its own domain
// generator, summarizing the whole paper in one table:
//   Case A (short N, narrow W): gesture exemplars, N=315, w=5%
//   Case B (long N, narrow W):  music alignment, N=24,000, w=0.83%
//   Case C (short N, wide W):   power-demand days, N=450, w=40%
//   Case D (long N, wide W):    fall traces, N=1,600, w=100%
// For each: exact cDTW at the domain's W vs FastDTW (reference package
// and optimized port) at a serviceable radius.
//
// Flags: --reps (5), --json=<path>.

#include <cstdio>
#include <string>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/chroma.h"
#include "warp/gen/fall.h"
#include "warp/gen/gesture.h"
#include "warp/gen/power_demand.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

struct CaseSpec {
  const char* name;
  std::vector<double> x;
  std::vector<double> y;
  double window_fraction;
  size_t radius;
};

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int reps = static_cast<int>(flags.GetCount("reps", 5, 1));
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "Table 1", "Four-quadrant map: exact cDTW_W vs FastDTW per case");
  report.AddConfig("reps", reps);

  PrintBanner("Table 1",
              "The four-quadrant map: one representative pairing per "
              "case, exact cDTW_W vs FastDTW");

  std::vector<CaseSpec> cases;
  {
    gen::GestureOptions options;
    options.length = 315;
    Rng rng(1);
    cases.push_back({"A: gestures (N=315, W=5%)",
                     gen::MakeGesture(0, options, rng).values(),
                     gen::MakeGesture(0, options, rng).values(), 0.05, 10});
  }
  {
    gen::ChromaOptions options;
    options.length = 24000;
    auto [studio, live] = gen::MakePerformancePair(options);
    cases.push_back({"B: music (N=24000, W=0.83%)", std::move(studio),
                     std::move(live), 0.0083, 10});
  }
  {
    Rng rng(2);
    const TimeSeries day1 = gen::MakeDishwasherNight(450, 20, rng);
    const TimeSeries day2 = gen::MakeDishwasherNight(450, 170, rng);
    cases.push_back({"C: power (N=450, W=40%)", day1.values(),
                     day2.values(), 0.40, 20});
  }
  {
    Rng rng(3);
    auto [early, late] = gen::MakeFallPair(16.0, 100.0, rng);
    cases.push_back({"D: falls (N=1600, W=100%)", std::move(early),
                     std::move(late), 1.0, 40});
  }

  TablePrinter table({"case", "cDTW_W (ms)", "FastDTW ref (ms)",
                      "FastDTW opt (ms)", "exact wins vs ref",
                      "vs opt"});
  for (const CaseSpec& spec : cases) {
    DtwBuffer buffer;
    double checksum = 0.0;
    const std::string label(spec.name, 0, 1);  // Quadrant letter.
    const TimingSummary exact = report.MeasureCase(
        label + "/cdtw_w",
        [&] {
          checksum += CdtwDistanceFraction(spec.x, spec.y,
                                           spec.window_fraction,
                                           CostKind::kSquared, &buffer);
        },
        reps);
    const TimingSummary reference = report.MeasureCase(
        label + "/fastdtw_ref",
        [&] {
          checksum += ReferenceFastDtw(spec.x, spec.y, spec.radius).distance;
        },
        std::max(1, reps / 5), 0);
    const TimingSummary optimized = report.MeasureCase(
        label + "/fastdtw_opt",
        [&] { checksum += FastDtwDistance(spec.x, spec.y, spec.radius); },
        reps);
    DoNotOptimize(checksum);
    table.AddRow(
        {spec.name, TablePrinter::FormatDouble(exact.mean_millis(), 2),
         TablePrinter::FormatDouble(reference.mean_millis(), 2),
         TablePrinter::FormatDouble(optimized.mean_millis(), 2),
         TablePrinter::FormatDouble(reference.mean / exact.mean, 0) + "x",
         TablePrinter::FormatDouble(optimized.mean / exact.mean, 1) + "x"});
  }
  table.Print();
  std::printf("\nPer-case timing detail:\n%s",
              report.TimingTable().c_str());
  std::printf(
      "\nWork counters (cells computed is the paper's core argument — "
      "FastDTW's exceed cDTW_W's at small radii):\n%s",
      report.CounterTable().c_str());
  std::printf(
      "\nThe paper's summary: exact cDTW at the domain's natural W wins "
      "everywhere except deep inside contrived Case D — and even there it "
      "is exact where FastDTW is not.\n");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
