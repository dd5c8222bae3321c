// Experiment E7 — paper Table 2, Fig. 7, Fig. 8 (accuracy failure).
//
// Three series (A, B, C): A and B are the Appendix-A adversarial pair
// (near-identical under unconstrained warping, but whose PAA-coarsened
// versions warp the opposite way); C is genuinely different. The paper
// shows Full DTW clusters {A, B} together while FastDTW_20 misjudges
// d(A, B) by orders of magnitude (0.020 -> 31.24, a 156,100% error) and
// flips the dendrogram. This harness prints both distance matrices, the
// error metric, both dendrograms, and the Fig. 8 "wrong-way warp"
// diagnostic on the 8:1 PAA-coarsened pair.
//
// Flags: --radius (20), --json=<path>.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/bench_flags.h"
#include "warp/common/stopwatch.h"
#include "warp/core/approx_error.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/gen/adversarial.h"
#include "warp/mining/hierarchical_clustering.h"
#include "warp/common/metrics.h"
#include "warp/obs/report.h"
#include "warp/ts/paa.h"

namespace warp {
namespace bench {
namespace {

// Mean signed deviation (j - i) of a warping path: positive means the
// alignment warps "rightward" (the first series lags), negative means
// "leftward". Fig. 8's point is that the coarse pair warps the opposite
// way to the raw pair.
double MeanPathDirection(const WarpingPath& path) {
  double sum = 0.0;
  for (const PathPoint& p : path.points()) {
    sum += static_cast<double>(p.j) - static_cast<double>(p.i);
  }
  return sum / static_cast<double>(path.size());
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t radius = flags.GetCount("radius", 20);
  const std::string json_path = JsonFlag(flags);
  SimdFlag(flags);
  flags.Finalize();

  obs::BenchReport report(
      "E7 / Table 2 + Figs. 7-8",
      "Adversarial triple: Full DTW vs FastDTW distance matrices");
  report.AddConfig("radius", static_cast<int64_t>(radius));

  PrintBanner("E7 / Table 2 + Figs. 7-8",
              "Adversarial triple: Full DTW vs FastDTW_20 distance "
              "matrices, dendrograms, and the wrong-way-warp diagnostic");

  const gen::AdversarialTriple triple = gen::MakeAdversarialTriple();
  const std::vector<std::vector<double>> series = {triple.a, triple.b,
                                                   triple.c};
  const std::vector<std::string> labels = {"A", "B", "C"};

  obs::MetricsSnapshot before = obs::SnapshotCounters();
  Stopwatch watch;
  const DistanceMatrix exact = ComputePairwiseMatrix(
      series, [](std::span<const double> a, std::span<const double> b) {
        return DtwDistance(a, b);
      });
  report.AddCase("full_dtw_matrix",
                 SummarizeSamples({watch.ElapsedSeconds()}),
                 obs::CountersSince(before));
  before = obs::SnapshotCounters();
  watch.Restart();
  const DistanceMatrix approx = ComputePairwiseMatrix(
      series,
      [radius](std::span<const double> a, std::span<const double> b) {
        return FastDtwDistance(a, b, radius);
      });
  report.AddCase("fastdtw_matrix",
                 SummarizeSamples({watch.ElapsedSeconds()}),
                 obs::CountersSince(before));

  std::printf("Full DTW distance matrix:\n%s\n",
              exact.ToString(labels).c_str());
  std::printf("FastDTW_%zu distance matrix:\n%s\n", radius,
              approx.ToString(labels).c_str());

  std::printf("d(A,B): exact %.4f vs FastDTW_%zu %.4f -> error %.0f%%  "
              "(paper: 0.020 vs 31.24 -> 156,100%%)\n\n",
              exact.at(0, 1), radius, approx.at(0, 1),
              ApproxErrorPercent(approx.at(0, 1), exact.at(0, 1)));

  const Dendrogram exact_tree = AgglomerativeCluster(exact, Linkage::kSingle);
  const Dendrogram approx_tree =
      AgglomerativeCluster(approx, Linkage::kSingle);
  std::printf("Fig. 7(a) dendrogram under Full DTW:\n%s",
              exact_tree.RenderAscii(labels).c_str());
  std::printf("  newick: %s\n\n", exact_tree.ToNewick(labels).c_str());
  std::printf("Fig. 7(b) dendrogram under FastDTW_%zu:\n%s", radius,
              approx_tree.RenderAscii(labels).c_str());
  std::printf("  newick: %s\n\n", approx_tree.ToNewick(labels).c_str());

  const MergeStep& exact_first = exact_tree.merges()[0];
  const bool exact_ab_first =
      (exact_first.left == 0 && exact_first.right == 1) ||
      (exact_first.left == 1 && exact_first.right == 0);
  const MergeStep& approx_first = approx_tree.merges()[0];
  const bool approx_ab_first =
      (approx_first.left == 0 && approx_first.right == 1) ||
      (approx_first.left == 1 && approx_first.right == 0);
  std::printf("Topology: Full DTW merges {A,B} first: %s; FastDTW does: %s "
              "-> flip %s\n\n",
              exact_ab_first ? "yes" : "no", approx_ab_first ? "yes" : "no",
              exact_ab_first && !approx_ab_first ? "reproduced"
                                                 : "NOT reproduced");

  // Fig. 8: direction of the optimal warp, raw vs 8:1 PAA.
  const DtwResult raw_alignment = Dtw(triple.a, triple.b);
  const std::vector<double> coarse_a = Paa(triple.a, triple.a.size() / 8);
  const std::vector<double> coarse_b = Paa(triple.b, triple.b.size() / 8);
  const DtwResult coarse_alignment = Dtw(coarse_a, coarse_b);
  const double raw_direction = MeanPathDirection(raw_alignment.path);
  const double coarse_direction = MeanPathDirection(coarse_alignment.path);
  std::printf(
      "Fig. 8 diagnostic: mean path deviation (j - i)\n"
      "  raw pair:           %+8.2f cells\n"
      "  8:1 PAA pair:       %+8.2f cells (scaled x8: %+8.2f)\n"
      "  opposite direction: %s (this is why FastDTW cannot recover)\n",
      raw_direction, coarse_direction, coarse_direction * 8.0,
      raw_direction * coarse_direction < 0.0 ? "yes" : "no");
  report.Finish(json_path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) { return warp::bench::Main(argc, argv); }
