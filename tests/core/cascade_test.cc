// The one pruning cascade (warp/core/cascade.h): its strict kill rule, its
// two LB_Kim forms, and the counter identity every caller gets from it.
// Each candidate counts once in cascade_candidates and once in
// lb_kim_calls and ends in exactly one of the four outcomes, in the
// registry and in the caller's stats alike. A brute-force scan counts
// nothing.

#include "warp/core/cascade.h"

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/common/metrics.h"
#include "warp/common/random.h"
#include "warp/core/dtw.h"
#include "warp/gen/random_walk.h"
#include "warp/mining/nn_classifier.h"
#include "warp/mining/similarity_search.h"
#include "warp/mining/stream_monitor.h"
#include "warp/mining/window_search.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/query_engine.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr simd::SimdMode kModes[] = {simd::SimdMode::kOff,
                                     simd::SimdMode::kOn};

TEST(CascadeTest, KillsOnlyStrictlyAboveTheBound) {
  const std::vector<double> query = {0.0, 1.0, 2.0, 1.0};
  CascadeCounts counts;
  const Cascade cascade(query, 1, CostKind::kSquared, &counts);
  DtwWorkspace workspace;
  // A copy of the query ties a zero bound on every rung and reaches the DP.
  EXPECT_FALSE(cascade.KilledByKim(cascade.Kim(0.0, 1.0), 0.0));
  EXPECT_EQ(cascade.Distance(query, 0.0, &workspace), 0.0);
  // Matching endpoints pass LB_Kim; the excursion in between fails
  // LB_Keogh.
  const std::vector<double> bump = {0.0, 5.0, 5.0, 1.0};
  EXPECT_FALSE(cascade.KilledByKim(cascade.Kim(0.0, 1.0), 1.0));
  EXPECT_EQ(cascade.Distance(bump, 1.0, &workspace), kInf);
  EXPECT_TRUE(cascade.KilledByKim(cascade.Kim(0.5, 1.0), 0.0));
  EXPECT_EQ(counts.pruned_by_kim, 1u);
  EXPECT_EQ(counts.pruned_by_keogh, 1u);
  EXPECT_EQ(counts.abandoned_dtw, 0u);
  EXPECT_EQ(counts.full_dtw, 1u);
}

// The DP adds LB_Keogh's suffix sums to its abandon test, and they are
// rounded apart from the DP's own sum. Against a zero query, a candidate
// of 1 then 2^-27s costs 1 + k * 2^-54 exactly, and the DP rounds every
// 2^-54 away against the 1; the residual sums them alone, so 1 + residual
// is above 1. A test that killed that tie at bound == distance would break
// the strict `> bound` rule; the widened bound keeps it. Length 40 is what
// catches the wavefront: on length 5 its one test point adds one 2^-54.
TEST(CascadeTest, ResidualNeverKillsATie) {
  const double tiny = std::ldexp(1.0, -27);
  for (const size_t length : {5u, 40u}) {
    const std::vector<double> query(length, 0.0);
    std::vector<double> candidate(length, tiny);
    candidate[0] = 1.0;
    for (const simd::SimdMode mode : kModes) {
      const simd::ScopedSimdMode scoped(mode);
      for (const size_t band : {0u, 1u, 2u, 8u, 20u}) {
        const double exact = CdtwDistance(query, candidate, band);
        const Cascade cascade(query, band, CostKind::kSquared);
        DtwWorkspace workspace;
        EXPECT_EQ(cascade.Distance(candidate, exact, &workspace), exact)
            << "length " << length << " band " << band << " "
            << simd::SimdModeName(mode);
      }
    }
  }
}

TEST(CascadeTest, LengthOneCountsItsOnlyCellOnce) {
  const std::vector<double> query = {3.0};
  for (const simd::SimdMode mode : kModes) {
    const simd::ScopedSimdMode scoped(mode);
    const Cascade cascade(query, 0, CostKind::kSquared);
    EXPECT_EQ(cascade.Kim(5.0, 5.0), 4.0);
    const double ends[] = {5.0, 1.0};
    double out[2] = {0.0, 0.0};
    cascade.KimBlock(ends, ends, 2, out);
    EXPECT_EQ(out[0], 4.0);
    EXPECT_EQ(out[1], 4.0);
  }
}

TEST(CascadeTest, KimBlockIsKimBitwise) {
  Rng rng(5);
  std::vector<double> query(16);
  std::vector<double> heads(37);  // Whole vector blocks plus a tail.
  std::vector<double> tails(37);
  for (double& v : query) v = rng.Gaussian(0.0, 1.0);
  for (double& v : heads) v = rng.Gaussian(0.0, 1.0);
  for (double& v : tails) v = rng.Gaussian(0.0, 1.0);
  for (const simd::SimdMode mode : kModes) {
    const simd::ScopedSimdMode scoped(mode);
    for (const CostKind cost : {CostKind::kSquared, CostKind::kAbsolute}) {
      const Cascade cascade(query, 3, cost);
      std::vector<double> out(heads.size());
      cascade.KimBlock(heads.data(), tails.data(), heads.size(), out.data());
      for (size_t i = 0; i < heads.size(); ++i) {
        EXPECT_EQ(out[i], cascade.Kim(heads[i], tails[i])) << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The counter identity, caller by caller.

// Registry deltas of the cascade counters over one run of `work`.
struct Tally {
  uint64_t candidates = 0;
  uint64_t kim_calls = 0;
  CascadeCounts outcomes;
};

Tally Count(const std::function<void()>& work) {
  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  work();
  const obs::MetricsSnapshot delta = obs::CountersSince(before);
  Tally tally;
  tally.candidates = delta[obs::Counter::kCascadeCandidates];
  tally.kim_calls = delta[obs::Counter::kLbKimCalls];
  tally.outcomes.pruned_by_kim = delta[obs::Counter::kLbKimKills];
  tally.outcomes.pruned_by_keogh = delta[obs::Counter::kLbKeoghKills];
  tally.outcomes.abandoned_dtw = delta[obs::Counter::kCascadeEarlyAbandons];
  tally.outcomes.full_dtw = delta[obs::Counter::kCascadeFullDtw];
  return tally;
}

uint64_t Sum(const CascadeCounts& c) {
  return c.pruned_by_kim + c.pruned_by_keogh + c.abandoned_dtw + c.full_dtw;
}

// `stats`, for a caller that keeps them, must match the registry outcome
// by outcome.
void ExpectIdentity(const Tally& tally, const CascadeCounts* stats) {
  EXPECT_EQ(tally.candidates, Sum(tally.outcomes));
  EXPECT_EQ(tally.kim_calls, tally.candidates);
  EXPECT_GT(tally.candidates, 0u);
  if (stats == nullptr) return;
  EXPECT_EQ(stats->pruned_by_kim, tally.outcomes.pruned_by_kim);
  EXPECT_EQ(stats->pruned_by_keogh, tally.outcomes.pruned_by_keogh);
  EXPECT_EQ(stats->abandoned_dtw, tally.outcomes.abandoned_dtw);
  EXPECT_EQ(stats->full_dtw, tally.outcomes.full_dtw);
}

class CascadeCallerTest : public ::testing::TestWithParam<simd::SimdMode> {
 protected:
  CascadeCallerTest() : scoped_(GetParam()) {}

  const Dataset train_ = gen::RandomWalkDataset(40, 48, 61);
  const Dataset test_ = gen::RandomWalkDataset(10, 48, 62);

 private:
  simd::ScopedSimdMode scoped_;
};

TEST_P(CascadeCallerTest, ClassifierOneNn) {
  const AcceleratedNnClassifier classifier(train_, 5);
  ClassificationStats stats;
  const Tally tally = Count([&] {
    for (size_t i = 0; i < test_.size(); ++i) {
      classifier.Classify(test_[i].view(), &stats);
    }
  });
  ExpectIdentity(tally, &stats);
  EXPECT_EQ(stats.candidates, Sum(stats));
  // Every rung kills something on this input.
  EXPECT_GT(stats.pruned_by_kim, 0u);
  EXPECT_GT(stats.pruned_by_keogh, 0u);
  EXPECT_GT(stats.abandoned_dtw, 0u);
  EXPECT_GT(stats.full_dtw, 0u);
}

TEST_P(CascadeCallerTest, ClassifierKnn) {
  const AcceleratedNnClassifier classifier(train_, 5);
  ClassificationStats stats;
  const Tally tally = Count([&] {
    for (size_t i = 0; i < test_.size(); ++i) {
      classifier.ClassifyKnn(test_[i].view(), 3, &stats);
    }
  });
  ExpectIdentity(tally, &stats);
  EXPECT_EQ(stats.candidates, Sum(stats));
}

TEST_P(CascadeCallerTest, SubsequenceSearch) {
  const std::vector<double> haystack =
      gen::RandomWalkDataset(1, 3000, 63)[0].values();
  const std::vector<double> query = test_[0].values();
  SearchStats stats;
  const Tally tally =
      Count([&] { FindBestMatch(haystack, query, 4, CostKind::kSquared,
                                &stats); });
  ExpectIdentity(tally, &stats);
  EXPECT_EQ(stats.windows, Sum(stats));
}

TEST_P(CascadeCallerTest, StreamMonitor) {
  const std::vector<double> stream =
      gen::RandomWalkDataset(1, 3000, 64)[0].values();
  StreamMonitor monitor(test_[0].values(), 4, 8.0);
  const Tally tally = Count([&] {
    for (const double v : stream) monitor.Push(v);
  });
  ExpectIdentity(tally, &monitor.stats());
  EXPECT_EQ(monitor.stats().windows_checked, Sum(monitor.stats()));
}

TEST_P(CascadeCallerTest, Loocv) {
  const Tally tally = Count([&] { LoocvAccuracy(train_, 5); });
  ExpectIdentity(tally, nullptr);
}

TEST_P(CascadeCallerTest, ServeScans) {
  serve::DatasetStore store;
  store.Register("d", train_, {5});
  store.Register("points", gen::RandomWalkDataset(12, 1, 65), {0});
  serve::QueryEngine engine(&store, nullptr, 2);
  serve::ServeRequest request;
  request.dataset = "d";
  request.query = test_[0].values();
  request.params.band_cells = 5;

  for (const serve::QueryOp op :
       {serve::QueryOp::k1Nn, serve::QueryOp::kKnn, serve::QueryOp::kRange}) {
    request.op = op;
    request.k = 4;
    request.threshold = 40.0;
    const Tally tally = Count([&] { ASSERT_TRUE(engine.Run(request).ok); });
    ExpectIdentity(tally, nullptr);
  }

  // Length-1 series: LB_Kim is the whole distance, and the candidate
  // still ends in one outcome.
  serve::ServeRequest point = request;
  point.op = serve::QueryOp::k1Nn;
  point.dataset = "points";
  point.query = {0.25};
  point.params.band_cells = 0;
  ExpectIdentity(Count([&] { ASSERT_TRUE(engine.Run(point).ok); }), nullptr);

  // A brute-force scan runs no cascade and counts nothing.
  request.op = serve::QueryOp::k1Nn;
  request.measure = "dtw";
  const Tally brute = Count([&] { ASSERT_TRUE(engine.Run(request).ok); });
  EXPECT_EQ(brute.candidates, 0u);
  EXPECT_EQ(Sum(brute.outcomes), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SimdModes, CascadeCallerTest, ::testing::ValuesIn(kModes),
    [](const ::testing::TestParamInfo<simd::SimdMode>& info) {
      return std::string(simd::SimdModeName(info.param));
    });

}  // namespace
}  // namespace warp
