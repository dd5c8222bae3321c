// Engine-level regression tests for warp/core/dp_engine.h: buffer reuse
// across calls on one workspace and the workspace_allocs steady-state
// guarantee.

#include "warp/core/dp_engine.h"

#include <vector>

#include <gtest/gtest.h>

#include "warp/common/random.h"
#include "warp/core/dtw.h"
#include "warp/gen/gesture.h"
#include "warp/gen/random_walk.h"
#include "warp/mining/nn_classifier.h"
#include "warp/common/metrics.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace {

// --------------------------------------------------------------------------
// Buffer reuse.
//
// The two-row engine reuses its scratch rows across rows and across calls.
// It resets nothing per row: PrepareRows refills both rows with +inf on
// every call, and row ranges are monotone, so every cell a row reads was
// written by the row before it in this call or is still +inf.

// Re-widening pattern: a band's first rows widen by one column each, so
// each reads a prev-row cell the narrower row before it never wrote; with
// a workspace deliberately poisoned by a larger earlier call, a
// PrepareRows that only grew the rows would leave the earlier call's
// finite values there.
TEST(DpEngineStaleTailTest, NarrowThenWideWindowIgnoresPoisonedWorkspace) {
  Rng rng(7);
  const std::vector<double> x = gen::RandomWalk(64, rng);
  const std::vector<double> y = gen::RandomWalk(64, rng);

  DtwWorkspace poisoned;
  {
    // Fill both rows with zeros: comparing 256 zeros with themselves
    // leaves zero cumulative costs in all 257 slots, below anything the
    // narrow call computes. Scalar mode keeps the call on the row engine
    // (the SIMD wavefront has its own buffers).
    const simd::ScopedSimdMode scalar(simd::SimdMode::kOff);
    const std::vector<double> zeros(256, 0.0);
    (void)CdtwDistance(zeros, zeros, 256, CostKind::kSquared, &poisoned);
  }

  const double fresh_band = CdtwDistance(x, y, 3);
  const double reused_band =
      CdtwDistance(x, y, 3, CostKind::kSquared, &poisoned);
  EXPECT_EQ(reused_band, fresh_band);
}

// --------------------------------------------------------------------------
// workspace_allocs: every row (re)allocation bumps the counter, and
// steady-state loops over a reused workspace must be allocation-free.

TEST(DpEngineWorkspaceTest, AllocsFlatAcrossRepeatedCallsOnOneWorkspace) {
  Rng rng(11);
  const std::vector<double> x = gen::RandomWalk(96, rng);
  const std::vector<double> y = gen::RandomWalk(96, rng);

  // Warm up every scratch path the loop exercises: each call runs the SIMD
  // wavefront (wave buffers) when the band is wide enough and SIMD is on,
  // and the row engine (row buffers) otherwise.
  DtwWorkspace workspace;
  const double bound = CdtwDistance(x, y, 10) * 2.0;
  (void)CdtwDistance(x, y, 10, CostKind::kSquared, &workspace);
  (void)DtwDistance(x, y, CostKind::kSquared, nullptr, &workspace);
  (void)CdtwDistanceAbandoning(x, y, 10, bound, CostKind::kSquared,
                               &workspace);

  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  for (int i = 0; i < 50; ++i) {
    (void)CdtwDistance(x, y, 10, CostKind::kSquared, &workspace);
    (void)DtwDistance(x, y, CostKind::kSquared, nullptr, &workspace);
    (void)CdtwDistanceAbandoning(x, y, 10, bound, CostKind::kSquared,
                                 &workspace);
  }
  const obs::MetricsSnapshot delta = obs::CountersSince(before);
  EXPECT_EQ(delta.values[static_cast<size_t>(
                obs::Counter::kWorkspaceAllocs)],
            0u)
      << "steady-state distance calls must not reallocate";
}

TEST(DpEngineWorkspaceTest, GrowthBumpsTheCounterOnce) {
  DtwWorkspace workspace;
  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  workspace.PrepareRows(64);
  workspace.PrepareRows(32);   // Shrink: reuse, no allocation.
  workspace.PrepareRows(64);   // Back within capacity: no allocation.
  workspace.PrepareRows(128);  // Growth: one more allocation.
  const obs::MetricsSnapshot delta = obs::CountersSince(before);
  EXPECT_EQ(delta.values[static_cast<size_t>(
                obs::Counter::kWorkspaceAllocs)],
            2u);
}

// Repeated 1-NN queries are the flagship steady-state loop: after the
// first query warms the classifier's thread-local workspace, further
// queries must not touch the allocator through the DP engine.
TEST(DpEngineWorkspaceTest, RepeatedNnQueriesStayFlat) {
  gen::GestureOptions options;
  options.length = 96;
  options.num_classes = 3;
  options.seed = 23;
  const Dataset data = gen::MakeGestureDataset(6, options);
  const auto [train, test] = data.StratifiedSplit(0.5);
  const AcceleratedNnClassifier classifier(train, 5);

  for (const TimeSeries& query : test.series()) {
    (void)classifier.Classify(query.view());  // Warm up.
  }
  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  for (int round = 0; round < 5; ++round) {
    for (const TimeSeries& query : test.series()) {
      (void)classifier.Classify(query.view());
    }
  }
  const obs::MetricsSnapshot delta = obs::CountersSince(before);
  EXPECT_EQ(delta.values[static_cast<size_t>(
                obs::Counter::kWorkspaceAllocs)],
            0u)
      << "steady-state 1-NN queries must be allocation-free in the engine";
}

}  // namespace
}  // namespace warp
