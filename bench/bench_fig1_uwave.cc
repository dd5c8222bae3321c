// Experiment E1 — paper Fig. 1 (Case A: short N, narrow W).
//
// The paper computes all 400,960 pairwise distances of the 896
// UWaveGestureLibraryAll training exemplars (length 945) with FastDTW for
// r = 0..20 and cDTW for w = 0..20%, and shows cDTW is faster at every
// comparable fidelity. This harness reproduces the two curves with
// gesture-like synthetic exemplars of identical count and length (Fig. 1
// measures time, which is data-independent), timing a sampled subset of
// the pairs and extrapolating to the full 400,960.
//
// Two FastDTW implementations are reported:
//   * reference — a literal port of the `fastdtw` package the literature
//     (and the paper) actually ran: this is the headline comparator;
//   * optimized — our re-engineered FastDTW (contiguous windows, flat
//     arrays), showing the conclusion is not an artifact of a slow port.
//
// Flags:
//   --exemplars=N      pairs sampled for cDTW / optimized FastDTW (def 32)
//   --ref-exemplars=N  pairs sampled for reference FastDTW (default 8)
//   --total=N          dataset size used for extrapolation (default 896)
//   --length=N         exemplar length (default 945)
//   --step=N           sweep step for both w and r (default 4)
//   --max=N            sweep upper bound (default 20)
//   --threads=N        if > 1, also report an N-thread all-pairs section
//                      (0 = auto). The sweeps above always run on one
//                      core, matching the paper's single-core timings.
//   --json=PATH        write the warp-bench-v1 report to PATH.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "harness/pairwise.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/gesture.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t exemplars = flags.GetCount("exemplars", 32, 1);
  const size_t ref_exemplars = flags.GetCount("ref-exemplars", 8);
  const size_t total = flags.GetCount("total", 896, 1);
  const size_t length = flags.GetCount("length", 945, 1);
  const int step = static_cast<int>(flags.GetCount("step", 4, 1));
  const int max_setting = static_cast<int>(flags.GetCount("max", 20));
  const size_t threads = ThreadsFlag(flags);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E1 / Fig. 1",
      "All-pairs time (Case A): FastDTW_r vs cDTW_w, r and w in 0..20");
  report.AddConfig("exemplars", static_cast<int64_t>(exemplars));
  report.AddConfig("ref_exemplars", static_cast<int64_t>(ref_exemplars));
  report.AddConfig("total", static_cast<int64_t>(total));
  report.AddConfig("length", static_cast<int64_t>(length));
  report.AddConfig("step", step);
  report.AddConfig("max", max_setting);
  report.AddConfig("threads", static_cast<int64_t>(threads));

  // Records one all-pairs sweep point: per-comparison timing plus the
  // work-counter deltas accumulated across the sampled pairs.
  const auto record_pairwise = [&report](const std::string& name,
                                         const PairwiseTiming& timing,
                                         const obs::MetricsSnapshot& before) {
    report.AddCase(name,
                   PerOpSummary(timing.seconds,
                                static_cast<int64_t>(timing.pairs_timed)),
                   obs::CountersSince(before));
  };

  PrintBanner("E1 / Fig. 1",
              "All-pairs time, gesture-like data (N=945): FastDTW_r vs "
              "cDTW_w, r and w in 0..20");

  gen::GestureOptions options;
  options.length = length;
  const Dataset dataset = gen::MakeGestureDataset(
      (std::max(exemplars, ref_exemplars) +
       static_cast<size_t>(options.num_classes) - 1) /
          static_cast<size_t>(options.num_classes),
      options);
  const uint64_t full_pairs = TotalPairs(total);
  std::printf("exemplar length N=%zu; extrapolating to %llu comparisons "
              "(the paper's (896 x 895) / 2)\n\n",
              length, static_cast<unsigned long long>(full_pairs));

  // (a) FastDTW sweep over radius r, both implementations.
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
  std::printf("(a) FastDTW_r (reference = fastdtw-package port, the "
              "implementation the literature uses)\n");
  fast_table.Print();

  // (b) cDTW sweep over window w (percent of N).
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
  std::printf("\n(b) cDTW_w (vanilla iterative implementation, no lower "
              "bounds / early abandoning)\n");
  cdtw_table.Print();

  // (c) Multi-core all-pairs throughput: the same comparisons fanned out
  // over a thread pool. The checksum column verifies the parallel sweep
  // computed bitwise-identical distances; a mismatch fails the run.
  if (threads > 1) {
    std::printf("\n(c) parallel all-pairs throughput (--threads=%zu)\n",
                threads);
    bool checksums_equal = true;
    TablePrinter par_table({"measure", "1-thread us/cmp",
                            "N-thread us/cmp", "speedup", "checksums"});
    const auto report = [&](const char* name, const auto& factory) {
      const PairwiseTiming serial =
          TimeAllPairsParallel(dataset, exemplars, 1, factory);
      const PairwiseTiming parallel =
          TimeAllPairsParallel(dataset, exemplars, threads, factory);
      checksums_equal &= serial.checksum == parallel.checksum;
      par_table.AddRow(
          {name, TablePrinter::FormatDouble(serial.micros_per_pair(), 1),
           TablePrinter::FormatDouble(parallel.micros_per_pair(), 1),
           TablePrinter::FormatDouble(
               parallel.seconds > 0.0 ? serial.seconds / parallel.seconds
                                      : 0.0,
               2),
           serial.checksum == parallel.checksum ? "bitwise-equal"
                                                : "MISMATCH"});
    };
    const std::string cdtw_name = "cDTW_" + std::to_string(max_setting);
    report(cdtw_name.c_str(), [max_setting]() {
             auto buffer = std::make_shared<DtwBuffer>();
             return [max_setting, buffer](std::span<const double> a,
                                          std::span<const double> b) {
               return CdtwDistanceFraction(a, b, max_setting / 100.0,
                                           CostKind::kSquared, buffer.get());
             };
    });
    report("FastDTW_10 (optimized)", []() {
      return [](std::span<const double> a, std::span<const double> b) {
        return FastDtwDistance(a, b, 10);
      };
    });
    par_table.Print();
    if (!checksums_equal) {
      std::fprintf(stderr, "bench_fig1_uwave: the parallel sweep's checksum "
                           "differs from the serial one\n");
      return 1;
    }
  }

  // Index of the sweep entry closest to a requested setting, and the
  // setting that entry actually used (step may not divide it).
  auto nearest = [&](const std::vector<double>& v, int setting) {
    const size_t idx = std::min<size_t>(
        static_cast<size_t>((setting + step / 2) / step), v.size() - 1);
    return std::pair<double, int>(v[idx], static_cast<int>(idx) * step);
  };
  const auto [cdtw_4, cdtw_4_w] = nearest(cdtw_extrapolated, 4);
  const double cdtw_20 = cdtw_extrapolated.back();
  const double ref_0 = ref_extrapolated.front();
  const auto [ref_10, ref_10_r] = nearest(ref_extrapolated, 10);
  const auto [opt_10, opt_10_r] = nearest(opt_extrapolated, 10);
  std::printf(
      "\nShape checks (paper's claims for Fig. 1):\n"
      "  cDTW_%d (optimal w) %7.1f s vs FastDTW_0 (coarsest, reference) "
      "%8.1f s -> cDTW %s (%.1fx)\n"
      "  cDTW_%d (max w)    %7.1f s vs FastDTW_%d (reference)          "
      "%8.1f s -> cDTW %s (%.1fx)\n"
      "  cDTW_%d (max w)    %7.1f s vs FastDTW_%d (our optimized)      "
      "%8.1f s -> cDTW %s\n",
      cdtw_4_w, cdtw_4, ref_0,
      cdtw_4 <= ref_0 ? "wins" : "LOSES (unexpected)", ref_0 / cdtw_4,
      max_setting, cdtw_20, ref_10_r, ref_10,
      cdtw_20 <= ref_10 ? "wins" : "LOSES (unexpected)", ref_10 / cdtw_20,
      max_setting, cdtw_20, opt_10_r, opt_10,
      cdtw_20 <= opt_10 ? "wins even against the optimized port"
                        : "is within a small factor of an aggressively "
                          "optimized FastDTW (still approximate!)");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
