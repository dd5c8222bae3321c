// Parameterized property sweeps across the data generators: every
// generator must be deterministic per seed, produce the advertised
// shapes, and produce finite values, across a grid of lengths and seeds.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "warp/gen/chroma.h"
#include "warp/gen/ecg.h"
#include "warp/gen/gesture.h"
#include "warp/gen/power_demand.h"
#include "warp/gen/random_walk.h"

namespace warp {
namespace gen {
namespace {

bool AllFinite(std::span<const double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

using GenParam = std::tuple<size_t, uint64_t>;

class GeneratorPropertyTest : public ::testing::TestWithParam<GenParam> {};

TEST_P(GeneratorPropertyTest, RandomWalkFiniteAndDeterministic) {
  const auto [length, seed] = GetParam();
  Rng a(seed);
  Rng b(seed);
  const std::vector<double> first = RandomWalk(length, a);
  EXPECT_EQ(first.size(), length);
  EXPECT_TRUE(AllFinite(first));
  EXPECT_EQ(first, RandomWalk(length, b));
}

TEST_P(GeneratorPropertyTest, GesturesFiniteAndClassStable) {
  const auto [length, seed] = GetParam();
  if (length < 8) GTEST_SKIP();
  GestureOptions options;
  options.length = length;
  options.seed = seed;
  Rng rng(seed);
  const TimeSeries gesture = MakeGesture(1, options, rng);
  EXPECT_EQ(gesture.size(), length);
  EXPECT_TRUE(AllFinite(gesture.view()));
  EXPECT_EQ(gesture.label(), 1);
  // Templates don't depend on the exemplar RNG state.
  EXPECT_EQ(GestureTemplate(1, length, seed),
            GestureTemplate(1, length, seed));
}

TEST_P(GeneratorPropertyTest, ChromaPairSizesAndFiniteness) {
  const auto [length, seed] = GetParam();
  if (length < 16) GTEST_SKIP();
  ChromaOptions options;
  options.length = length;
  options.seed = seed;
  const auto [studio, live] = MakePerformancePair(options);
  EXPECT_EQ(studio.size(), length);
  EXPECT_EQ(live.size(), length);
  EXPECT_TRUE(AllFinite(studio));
  EXPECT_TRUE(AllFinite(live));
}

TEST_P(GeneratorPropertyTest, EcgBeatsFiniteAndLabeled) {
  const auto [length, seed] = GetParam();
  if (length < 16) GTEST_SKIP();
  EcgOptions options;
  options.beat_length = length;
  options.seed = seed;
  Rng rng(seed);
  for (int label : {kNormalBeatLabel, kPvcBeatLabel}) {
    const std::vector<double> beat = MakeBeat(label, options, rng);
    EXPECT_EQ(beat.size(), length);
    EXPECT_TRUE(AllFinite(beat));
  }
}

TEST_P(GeneratorPropertyTest, PowerNightsFiniteAndNonNegativeBaseline) {
  const auto [length, seed] = GetParam();
  Rng rng(seed);
  const TimeSeries night = MakeQuietNight(length, rng);
  EXPECT_EQ(night.size(), length);
  EXPECT_TRUE(AllFinite(night.view()));
  EXPECT_GE(night.Min(), 0.0);  // Power demand cannot be negative.
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratorPropertyTest,
    ::testing::Combine(::testing::Values<size_t>(3, 17, 128, 1001),
                       ::testing::Values<uint64_t>(1, 42, 31337)));

}  // namespace
}  // namespace gen
}  // namespace warp
