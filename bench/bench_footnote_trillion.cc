// Experiment E8 — paper Section 3.4, footnote 2 (the trillion-point
// projection).
//
// The paper: "Averaged over a million comparisons, we found FastDTW_10
// takes 0.1845 milliseconds for N = 128, and 10^12 x 0.1845 ms = 5.8
// years" — versus the UCR suite, which searched one *trillion* points
// under cDTW_5 in 1.4 days (2012 hardware), because exact cDTW admits
// lower bounding, early abandoning and just-in-time normalization that
// FastDTW structurally cannot use. This harness measures both sides on
// this machine: per-comparison FastDTW_10 cost at N=128, and the
// accelerated subsequence-search throughput, then extrapolates each to
// 10^12. It also runs the pruning-cascade ablation (naive vs cascaded).
//
// Flags: --reps (2000), --haystack (200000), --query (128),
//        --json=<path>.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/gen/random_walk.h"
#include "warp/mining/similarity_search.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"

namespace warp {
namespace bench {
namespace {

constexpr double kSecondsPerYear = 365.25 * 24 * 3600;
constexpr double kSecondsPerDay = 24 * 3600;

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int reps = static_cast<int>(flags.GetCount("reps", 2000, 1));
  const size_t query_len = flags.GetCount("query", 128, 1);
  // The search needs at least one full window of the query.
  const size_t haystack_len = flags.GetCount("haystack", 200000, query_len);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E8 / Section 3.4 footnote 2",
      "Trillion-point projection: FastDTW_10 at N=128 vs cDTW_5 search");
  report.AddConfig("reps", reps);
  report.AddConfig("haystack", static_cast<int64_t>(haystack_len));
  report.AddConfig("query", static_cast<int64_t>(query_len));

  PrintBanner("E8 / Section 3.4 footnote 2",
              "Trillion-point projection: per-comparison FastDTW_10 at "
              "N=128 vs accelerated cDTW_5 subsequence search");

  Rng rng(888);
  const std::vector<double> x = gen::RandomWalk(query_len, rng);
  const std::vector<double> y = gen::RandomWalk(query_len, rng);

  // Side 1: FastDTW_10 per comparison at N = 128 — the paper's anchor
  // measurement (0.1845 ms averaged over a million comparisons). Both
  // implementations are timed; the paper's own number falls between them.
  double checksum = 0.0;
  const TimingSummary fast = report.MeasureCase(
      "fastdtw_opt_n128",
      [&] { checksum += FastDtwDistance(x, y, 10); }, reps, 50);
  const TimingSummary reference = report.MeasureCase(
      "fastdtw_ref_n128",
      [&] { checksum += ReferenceFastDtw(x, y, 10).distance; },
      std::max(1, reps / 10), 5);
  const double fast_years = 1e12 * fast.mean / kSecondsPerYear;
  const double reference_years = 1e12 * reference.mean / kSecondsPerYear;
  std::printf(
      "FastDTW_10, N=128, per comparison (paper: 0.1845 ms):\n"
      "  optimized port: %.4f ms -> 10^12 comparisons = %5.1f years\n"
      "  reference port: %.4f ms -> 10^12 comparisons = %5.1f years\n"
      "  (paper's projection: 5.8 years)\n\n",
      fast.mean * 1e3, fast_years, reference.mean * 1e3, reference_years);

  // Side 2: accelerated subsequence search under cDTW_5 — one window
  // evaluated per haystack position, so throughput is positions/second.
  std::vector<double> haystack = gen::RandomWalk(haystack_len, rng);
  const std::vector<double> query = gen::RandomWalk(query_len, rng);
  const size_t band = query_len * 5 / 100;

  SearchStats cascade_stats;
  obs::MetricsSnapshot before = obs::SnapshotCounters();
  const SubsequenceMatch match =
      FindBestMatch(haystack, query, band, CostKind::kSquared,
                    &cascade_stats);
  report.AddCase("cdtw5_search_cascade",
                 PerOpSummary(cascade_stats.seconds,
                              static_cast<int64_t>(cascade_stats.windows)),
                 obs::CountersSince(before));
  const double positions_per_second =
      static_cast<double>(cascade_stats.windows) / cascade_stats.seconds;
  const double trillion_days =
      1e12 / positions_per_second / kSecondsPerDay;
  std::printf(
      "Accelerated cDTW_5 search (LB_Kim -> LB_Keogh -> early-abandon "
      "DTW):\n"
      "  %zu-point haystack scanned in %.2f s -> %.2e positions/s\n"
      "  -> one trillion points = %.1f days (paper: 1.4 days on 2012 "
      "hardware)\n"
      "  best match at %zu, distance %.3f\n"
      "  cascade: %llu windows | %llu pruned by LB_Kim | %llu by LB_Keogh "
      "| %llu abandoned | %llu full DTW\n\n",
      haystack_len, cascade_stats.seconds, positions_per_second,
      trillion_days, match.position, match.distance,
      static_cast<unsigned long long>(cascade_stats.windows),
      static_cast<unsigned long long>(cascade_stats.pruned_by_kim),
      static_cast<unsigned long long>(cascade_stats.pruned_by_keogh),
      static_cast<unsigned long long>(cascade_stats.abandoned_dtw),
      static_cast<unsigned long long>(cascade_stats.full_dtw));

  // Ablation: the same search without the cascade, on a prefix sized to
  // finish quickly; compare per-position cost.
  const size_t naive_len = std::min<size_t>(haystack_len, 20000);
  SearchStats naive_stats;
  before = obs::SnapshotCounters();
  FindBestMatchNaive(
      std::span<const double>(haystack).subspan(0, naive_len), query, band,
      CostKind::kSquared, &naive_stats);
  report.AddCase("cdtw5_search_naive",
                 PerOpSummary(naive_stats.seconds,
                              static_cast<int64_t>(naive_stats.windows)),
                 obs::CountersSince(before));
  const double naive_positions_per_second =
      static_cast<double>(naive_stats.windows) / naive_stats.seconds;
  std::printf(
      "Ablation (pruning off): %.2e positions/s -> cascade speedup %.0fx\n",
      naive_positions_per_second,
      positions_per_second / naive_positions_per_second);

  std::printf(
      "\nProjection summary: exact search finishes a trillion points %.0fx "
      "sooner than pairwise FastDTW_10 would (optimized port; %.0fx vs the "
      "reference package)\n",
      fast_years * kSecondsPerYear / (trillion_days * kSecondsPerDay),
      reference_years * kSecondsPerYear / (trillion_days * kSecondsPerDay));
  DoNotOptimize(checksum);
  std::printf("\nWork counters:\n%s", report.CounterTable().c_str());
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
