// Experiment companion — the "bake-off" framing of the paper's refs
// [1]-[5].
//
// The paper's premise is that "extensive empirical bake-offs have
// confirmed" cDTW as the measure to beat. This harness runs the bake-off
// on this library's own measures: 1-NN accuracy and total classification
// time for every distance in the suite, on two synthetic domains
// (gestures and ECG beats) whose within-class variation is a bounded time
// warp — i.e., data where elasticity should matter.
//
// Flags: --length (128), --train (6), --test (10), --classes (6),
//        --warp (0.1), --noise (0.45), --json=<path>.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/measure.h"
#include "warp/gen/ecg.h"
#include "warp/gen/gesture.h"
#include "warp/mining/nn_classifier.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"
#include "warp/simd/dispatch.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace bench {
namespace {

struct MeasureSpec {
  std::string name;
  SeriesMeasure measure;
  bool exact = true;
};

// The bake-off enumerates the measure registry (warp/core/measure.h), so
// a newly registered measure shows up here automatically; only the
// display name and the per-measure tuning below are bake-off-specific.
std::vector<MeasureSpec> MakeMeasures(size_t length) {
  const size_t band = std::max<size_t>(1, length / 10);
  std::vector<MeasureSpec> measures;
  for (const MeasureInfo& info : RegisteredMeasures()) {
    MeasureParams params;
    params.band_cells = static_cast<long>(band);
    std::string display = info.name;
    if (info.name == "ed") {
      display = "Euclidean";
    } else if (info.name == "cdtw") {
      display = "cDTW_10%";
    } else if (info.name == "dtw") {
      display = "Full DTW";
    } else if (info.name == "ddtw") {
      display = "DDTW_10%";
    } else if (info.name == "wdtw") {
      display = "WDTW g=0.1";
      params.wdtw_g = 0.1;
      params.wdtw_full_band = true;
    } else if (info.name == "adtw") {
      display = "ADTW";  // omega suggested per pair at ratio 0.1.
    } else if (info.name == "lcss") {
      display = "LCSS e=0.3";
      params.lcss_epsilon = 0.3;
    } else if (info.name == "erp") {
      display = "ERP g=0";
    } else if (info.name == "msm") {
      display = "MSM c=0.5";
      params.msm_cost = 0.5;
    } else if (info.name == "fastdtw") {
      display = "FastDTW_10";
    } else if (info.name == "fastdtw-ref") {
      display = "FastDTW_ref_10";
    }
    measures.push_back({display, MakeMeasure(info.name, params), info.exact});
  }
  return measures;
}

void RunDomain(obs::BenchReport& report, const char* domain,
               const Dataset& train, const Dataset& test, size_t length,
               simd::SimdMode simd_mode) {
  // SIMD A/B (docs/SIMD.md): unless the run is already pinned scalar,
  // every measure is timed twice — once under the requested mode
  // (primary row) and once pinned to the scalar paths ("<name>/scalar"
  // in the JSON) — so one run reports the vectorization speedup.
  const bool ab_scalar = simd_mode != simd::SimdMode::kOff;
  std::printf("\n%s (%zu train / %zu test, N=%zu):\n", domain, train.size(),
              test.size(), length);
  TablePrinter table({"measure", "accuracy (%)", "time (s)", "scalar (s)",
                      "simd speedup", "kind"});
  for (const MeasureSpec& spec : MakeMeasures(length)) {
    const obs::MetricsSnapshot before = obs::SnapshotCounters();
    const ClassificationStats stats =
        Evaluate1Nn(train, test, spec.measure);
    report.AddCase(std::string(domain) + "/" + spec.name,
                   SummarizeSamples({stats.seconds}),
                   obs::CountersSince(before));
    std::string scalar_text = "-";
    std::string speedup_text = "-";
    if (ab_scalar) {
      const simd::ScopedSimdMode off(simd::SimdMode::kOff);
      const obs::MetricsSnapshot scalar_before = obs::SnapshotCounters();
      const ClassificationStats scalar_stats =
          Evaluate1Nn(train, test, spec.measure);
      report.AddCase(std::string(domain) + "/" + spec.name + "/scalar",
                     SummarizeSamples({scalar_stats.seconds}),
                     obs::CountersSince(scalar_before));
      scalar_text = TablePrinter::FormatDouble(scalar_stats.seconds, 2);
      speedup_text =
          TablePrinter::FormatDouble(scalar_stats.seconds / stats.seconds, 2) +
          "x";
    }
    table.AddRow({spec.name,
                  TablePrinter::FormatDouble(stats.accuracy * 100.0, 1),
                  TablePrinter::FormatDouble(stats.seconds, 2), scalar_text,
                  speedup_text, spec.exact ? "exact" : "approximate"});
  }
  table.Print();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t length = flags.GetCount("length", 128, 1);
  const size_t per_class_train = flags.GetCount("train", 6, 1);
  const size_t per_class_test = flags.GetCount("test", 10, 1);
  const int classes = static_cast<int>(flags.GetCount("classes", 6, 1));
  const double warp = flags.GetDouble("warp", 0.1, 0.0);
  const double noise = flags.GetDouble("noise", 0.45, 0.0);
  const std::string json_path = JsonFlag(flags);
  const simd::SimdMode simd_mode = SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "Bake-off", "1-NN accuracy and time for every measure in the suite");
  report.AddConfig("length", static_cast<int64_t>(length));
  report.AddConfig("train", static_cast<int64_t>(per_class_train));
  report.AddConfig("test", static_cast<int64_t>(per_class_test));
  report.AddConfig("classes", classes);
  report.AddConfig("warp", warp);
  report.AddConfig("noise", noise);
  report.AddConfig("simd", simd::SimdModeName(simd_mode));
  report.AddConfig("simd_backend", simd::SimdBackendName());

  PrintBanner("Bake-off",
              "1-NN accuracy and time for every measure in the suite "
              "(the refs [1]-[5] framing)");

  // Domain 1: gestures.
  gen::GestureOptions gesture_options;
  gesture_options.length = length;
  gesture_options.num_classes = classes;
  gesture_options.warp_fraction = warp;
  gesture_options.noise_stddev = noise;
  gesture_options.seed = 808;
  const Dataset gesture_pool = gen::MakeGestureDataset(
      per_class_train + per_class_test, gesture_options);
  Dataset gesture_train;
  Dataset gesture_test;
  const size_t pool_per_class = per_class_train + per_class_test;
  for (size_t i = 0; i < gesture_pool.size(); ++i) {
    (i % pool_per_class < per_class_train ? gesture_train : gesture_test)
        .Add(gesture_pool[i]);
  }
  RunDomain(report, "Gestures", gesture_train, gesture_test, length,
            simd_mode);

  // Domain 2: ECG beats (normal vs PVC).
  gen::EcgOptions ecg_options;
  ecg_options.beat_length = length;
  ecg_options.noise_stddev = 0.12;
  ecg_options.seed = 909;
  const Dataset ecg_pool =
      gen::MakeBeatDataset(per_class_train + per_class_test, ecg_options);
  const auto [ecg_train, ecg_test] = ecg_pool.StratifiedSplit(
      static_cast<double>(per_class_train) /
      static_cast<double>(per_class_train + per_class_test));
  RunDomain(report, "ECG beats", ecg_train, ecg_test, length, simd_mode);

  std::printf(
      "\nReading guide: the elastic measures cluster at the top on warped "
      "data, with cDTW_10%% among the fastest of them — the bake-off "
      "consensus the paper builds on. The two FastDTW rows are the only "
      "approximate entries, and both approximate the *unconstrained* "
      "variant.\n");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
