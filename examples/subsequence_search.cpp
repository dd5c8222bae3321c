// UCR-suite-style subsequence search: find a pattern in a week of data.
//
// The workload behind the paper's trillion-point remark: scan a long
// series for the best-matching window of a query under cDTW, using the
// acceleration stack only exact DTW admits — just-in-time normalization,
// the LB_Kim/LB_Keogh cascade, and early-abandoning DTW. Prints the
// cascade's pruning statistics and the speedup over the unpruned scan.
//
// Build & run:  ./build/examples/subsequence_search [haystack_len]

#include <cstdio>
#include <vector>

#include "warp/common/flags.h"
#include "warp/common/random.h"
#include "warp/gen/random_walk.h"
#include "warp/gen/warping.h"
#include "warp/mining/similarity_search.h"

int main(int argc, char** argv) {
  const size_t query_len = 128;
  // The planted copy starts 2/3 in: the haystack holds three queries.
  warp::Flags flags(argc, argv);
  const size_t haystack_len = static_cast<size_t>(flags.PositionalInt(
      "haystack_len", 500000, 3 * query_len, warp::Flags::kNoMax));
  flags.Finalize();
  const size_t band = query_len * 5 / 100;  // cDTW_5, as in the UCR suite.

  // A long random-walk "recording" with a warped, rescaled copy of the
  // query planted deep inside.
  warp::Rng rng(7);
  std::vector<double> haystack = warp::gen::RandomWalk(haystack_len, rng);
  std::vector<double> query = warp::gen::RandomWalk(query_len, rng);
  const size_t planted_at = haystack_len * 2 / 3;
  const std::vector<double> planted =
      warp::gen::ApplyRandomWarp(query, 0.04, rng);
  for (size_t i = 0; i < query_len; ++i) {
    haystack[planted_at + i] = 2.5 * planted[i] - 7.0;  // Scale + offset.
  }
  std::printf("haystack: %zu points; query: %zu points; cDTW band: %zu "
              "cells; pattern planted at %zu (warped 4%%, rescaled)\n\n",
              haystack_len, query_len, band, planted_at);

  warp::SearchStats stats;
  const warp::SubsequenceMatch match = warp::FindBestMatch(
      haystack, query, band, warp::CostKind::kSquared, &stats);

  std::printf("best match: position %zu (distance %.4f) — %s\n",
              match.position, match.distance,
              match.position + 5 >= planted_at &&
                      match.position <= planted_at + 5
                  ? "the planted pattern, recovered"
                  : "NOT the planted pattern");
  std::printf("scan time: %.2f s (%.2e positions/s)\n\n", stats.seconds,
              static_cast<double>(stats.windows) / stats.seconds);

  std::printf("cascade statistics:\n");
  std::printf("  %10llu windows examined\n",
              static_cast<unsigned long long>(stats.windows));
  std::printf("  %10llu pruned by LB_Kim      (%.1f%%)\n",
              static_cast<unsigned long long>(stats.pruned_by_kim),
              100.0 * static_cast<double>(stats.pruned_by_kim) /
                  static_cast<double>(stats.windows));
  std::printf("  %10llu pruned by LB_Keogh    (%.1f%%)\n",
              static_cast<unsigned long long>(stats.pruned_by_keogh),
              100.0 * static_cast<double>(stats.pruned_by_keogh) /
                  static_cast<double>(stats.windows));
  std::printf("  %10llu DTWs abandoned early\n",
              static_cast<unsigned long long>(stats.abandoned_dtw));
  std::printf("  %10llu DTWs run to completion (%.3f%%)\n\n",
              static_cast<unsigned long long>(stats.full_dtw),
              100.0 * static_cast<double>(stats.full_dtw) /
                  static_cast<double>(stats.windows));

  // Contrast with the unpruned scan on a prefix.
  const size_t naive_len = std::min<size_t>(haystack_len, 30000);
  warp::SearchStats naive_stats;
  warp::FindBestMatchNaive(
      std::span<const double>(haystack).subspan(0, naive_len), query, band,
      warp::CostKind::kSquared, &naive_stats);
  const double cascade_rate =
      static_cast<double>(stats.windows) / stats.seconds;
  const double naive_rate =
      static_cast<double>(naive_stats.windows) / naive_stats.seconds;
  std::printf("without the cascade the same scan runs %.0fx slower — and "
              "none of these optimizations exist for FastDTW.\n",
              cascade_rate / naive_rate);
  return 0;
}
