// SIMD-vs-scalar parity: the determinism contract of docs/SIMD.md.
//
// Every vectorized kernel — the anti-diagonal DP wavefront, the envelope
// sliding extrema, the LB_Keogh block skip, the LB_Kim candidate
// batches, and the z-norm scale pass — must produce results identical to
// the scalar reference at EVERY size, band, and thread count. --simd=on
// forces the vector-structured code paths even on the scalar-fallback
// backend and below the auto width gate, so this suite pins the
// contract on every build, not just AVX2 hosts.
//
// Distances are compared with EXPECT_EQ on doubles (bitwise up to the
// sign of zero); envelopes likewise — the sliding-extrema pass may pick
// the other representation of a tied ±0.0, which compares equal.

#include "warp/simd/vdouble.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "warp/common/random.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/envelope.h"
#include "warp/core/lower_bounds.h"
#include "warp/core/measure.h"
#include "warp/gen/gesture.h"
#include "warp/gen/random_walk.h"
#include "warp/mining/nn_classifier.h"
#include "warp/simd/dispatch.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace {

std::vector<double> Walk(uint64_t seed, size_t n) {
  Rng rng(seed);
  return gen::RandomWalk(n, rng);
}

double Eval(const SeriesMeasure& fn, const std::vector<double>& x,
            const std::vector<double>& y, simd::SimdMode mode) {
  const simd::ScopedSimdMode scoped(mode);
  return fn(x, y);
}

// --------------------------------------------------------------------------
// vdouble unit tests: the wrapper's per-lane semantics are what every
// kernel's exactness argument rests on.

TEST(VdoubleTest, MaskedLoadEveryTailLength) {
  for (size_t count = 0; count <= simd::kLanes; ++count) {
    // Exact-sized heap buffer: under ASan, any read past p[count - 1]
    // (the documented guarantee) is an out-of-bounds error.
    std::vector<double> src(std::max<size_t>(count, 1));
    src.resize(count);
    for (size_t i = 0; i < count; ++i) src[i] = 1.5 + static_cast<double>(i);
    static const double dummy = 0.0;
    const double* p = count == 0 ? &dummy : src.data();
    const simd::vdouble v = simd::vdouble::LoadMasked(p, count);
    for (size_t l = 0; l < simd::kLanes; ++l) {
      EXPECT_EQ(v.Lane(l), l < count ? src[l] : 0.0)
          << "count=" << count << " lane=" << l;
    }
  }
}

TEST(VdoubleTest, MaskedStoreEveryTailLength) {
  for (size_t count = 0; count <= simd::kLanes; ++count) {
    // One sentinel slot past the masked range: it must survive the store.
    std::vector<double> dst(count + 1, -7.25);
    simd::vdouble::Broadcast(9.5).StoreMasked(dst.data(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(dst[i], 9.5) << "count=" << count << " i=" << i;
    }
    EXPECT_EQ(dst[count], -7.25) << "count=" << count;
  }
}

TEST(VdoubleTest, RoundTripAndLanewiseArithmetic) {
  double a_mem[simd::kLanes];
  double b_mem[simd::kLanes];
  for (size_t l = 0; l < simd::kLanes; ++l) {
    a_mem[l] = 0.1 * static_cast<double>(l + 1);
    b_mem[l] = 3.0 - static_cast<double>(l);
  }
  const simd::vdouble a = simd::vdouble::Load(a_mem);
  const simd::vdouble b = simd::vdouble::Load(b_mem);
  double out[simd::kLanes];
  (a + b).Store(out);
  for (size_t l = 0; l < simd::kLanes; ++l) EXPECT_EQ(out[l], a_mem[l] + b_mem[l]);
  (a - b).Store(out);
  for (size_t l = 0; l < simd::kLanes; ++l) EXPECT_EQ(out[l], a_mem[l] - b_mem[l]);
  (a * b).Store(out);
  for (size_t l = 0; l < simd::kLanes; ++l) EXPECT_EQ(out[l], a_mem[l] * b_mem[l]);
}

// The engine's first-minimal-candidate tie rule: `if (b < a) a = b;`.
// With a = +0.0, b = -0.0 neither compares less, so the FIRST operand
// (and its sign bit) must survive.
TEST(VdoubleTest, MinMaxPreferFirstOnTies) {
  const simd::vdouble pz = simd::vdouble::Broadcast(+0.0);
  const simd::vdouble nz = simd::vdouble::Broadcast(-0.0);
  EXPECT_FALSE(std::signbit(MinPreferFirst(pz, nz).Lane(0)));
  EXPECT_TRUE(std::signbit(MinPreferFirst(nz, pz).Lane(0)));
  EXPECT_FALSE(std::signbit(MaxPreferFirst(pz, nz).Lane(0)));
  EXPECT_TRUE(std::signbit(MaxPreferFirst(nz, pz).Lane(0)));

  const simd::vdouble two = simd::vdouble::Broadcast(2.0);
  const simd::vdouble three = simd::vdouble::Broadcast(3.0);
  EXPECT_EQ(MinPreferFirst(three, two).Lane(0), 2.0);
  EXPECT_EQ(MinPreferFirst(two, three).Lane(0), 2.0);
  EXPECT_EQ(MaxPreferFirst(three, two).Lane(0), 3.0);
  EXPECT_EQ(MaxPreferFirst(two, three).Lane(0), 3.0);
}

TEST(VdoubleTest, AbsClearsSignBit) {
  EXPECT_EQ(Abs(simd::vdouble::Broadcast(-3.5)).Lane(0), 3.5);
  EXPECT_EQ(Abs(simd::vdouble::Broadcast(3.5)).Lane(0), 3.5);
  EXPECT_FALSE(std::signbit(Abs(simd::vdouble::Broadcast(-0.0)).Lane(0)));
}

// AnyOutside is strict: values equal to a bound are inside (LB_Keogh's
// excursion test is `c > u || c < l`).
TEST(VdoubleTest, AnyOutsideIsStrict) {
  const simd::vdouble lo = simd::vdouble::Broadcast(-1.0);
  const simd::vdouble hi = simd::vdouble::Broadcast(1.0);
  EXPECT_FALSE(AnyOutside(simd::vdouble::Broadcast(0.5), lo, hi));
  EXPECT_FALSE(AnyOutside(simd::vdouble::Broadcast(1.0), lo, hi));
  EXPECT_FALSE(AnyOutside(simd::vdouble::Broadcast(-1.0), lo, hi));
  EXPECT_TRUE(AnyOutside(simd::vdouble::Broadcast(1.0000001), lo, hi));
  EXPECT_TRUE(AnyOutside(simd::vdouble::Broadcast(-1.0000001), lo, hi));
  // One excursion lane among inside lanes is enough.
  double mixed[simd::kLanes];
  for (size_t l = 0; l < simd::kLanes; ++l) mixed[l] = 0.0;
  mixed[simd::kLanes - 1] = 2.0;
  EXPECT_TRUE(AnyOutside(simd::vdouble::Load(mixed), lo, hi));
}

// SelectFirst is the abandoning sweep's mask for overhang lanes, which
// hold garbage: every count, and one past kLanes, which keeps all of a.
TEST(VdoubleTest, SelectFirstEveryCount) {
  double a_mem[simd::kLanes];
  for (size_t l = 0; l < simd::kLanes; ++l) {
    a_mem[l] = 1.5 + static_cast<double>(l);
  }
  const simd::vdouble a = simd::vdouble::Load(a_mem);
  const simd::vdouble b = simd::vdouble::Broadcast(-2.0);
  for (size_t count = 0; count <= simd::kLanes + 1; ++count) {
    const simd::vdouble r = SelectFirst(count, a, b);
    for (size_t l = 0; l < simd::kLanes; ++l) {
      EXPECT_EQ(r.Lane(l), l < count ? a_mem[l] : -2.0)
          << "count=" << count << " lane=" << l;
    }
  }
}

// MinLane finds the smallest value in whichever lane holds it, among
// finite and +inf lanes, signed zeros included.
TEST(VdoubleTest, MinLaneFindsTheSmallestInEveryLane) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t at = 0; at < simd::kLanes; ++at) {
    for (const double smallest : {-3.0, -0.0, 0.0, 1.25}) {
      double mem[simd::kLanes];
      for (size_t l = 0; l < simd::kLanes; ++l) {
        mem[l] = l % 2 == 0 ? 2.0 + static_cast<double>(l) : kInf;
      }
      mem[at] = smallest;
      EXPECT_EQ(MinLane(simd::vdouble::Load(mem)), smallest)
          << "at=" << at << " smallest=" << smallest;
    }
  }
  EXPECT_EQ(MinLane(simd::vdouble::Broadcast(kInf)), kInf);
}

// --------------------------------------------------------------------------
// Dispatch plumbing.

TEST(DispatchTest, ParseSimdMode) {
  simd::SimdMode mode = simd::SimdMode::kAuto;
  EXPECT_TRUE(simd::ParseSimdMode("on", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kOn);
  EXPECT_TRUE(simd::ParseSimdMode("off", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kOff);
  EXPECT_TRUE(simd::ParseSimdMode("auto", &mode));
  EXPECT_EQ(mode, simd::SimdMode::kAuto);
  for (const char* bad : {"", "ON", "onn", "0", "true", "avx2"}) {
    mode = simd::SimdMode::kOn;
    EXPECT_FALSE(simd::ParseSimdMode(bad, &mode)) << bad;
    EXPECT_EQ(mode, simd::SimdMode::kOn) << "mode must be untouched: " << bad;
  }
}

TEST(DispatchTest, ScopedModeRestores) {
  const simd::SimdMode outer = simd::GetSimdMode();
  {
    const simd::ScopedSimdMode off(simd::SimdMode::kOff);
    EXPECT_EQ(simd::GetSimdMode(), simd::SimdMode::kOff);
    EXPECT_FALSE(simd::SimdActive());
    EXPECT_FALSE(simd::WavefrontEligible(1000));
    {
      const simd::ScopedSimdMode on(simd::SimdMode::kOn);
      EXPECT_TRUE(simd::SimdActive());
      // Mode on bypasses the auto width gate so parity tests can reach
      // the wavefront at every size on every build.
      EXPECT_TRUE(simd::WavefrontEligible(1));
    }
    EXPECT_EQ(simd::GetSimdMode(), simd::SimdMode::kOff);
  }
  EXPECT_EQ(simd::GetSimdMode(), outer);
}

TEST(DispatchTest, AutoRespectsWidthGate) {
  const simd::ScopedSimdMode auto_mode(simd::SimdMode::kAuto);
  // Below the gate auto is always scalar, whatever the host CPU.
  EXPECT_FALSE(simd::WavefrontEligible(simd::kWavefrontAutoMinWidth - 1));
  // At/above the gate auto follows the runtime probe.
  EXPECT_EQ(simd::WavefrontEligible(simd::kWavefrontAutoMinWidth),
            simd::SimdActive());
}

TEST(DispatchTest, AutoRespectsEnvelopeBandGate) {
  const simd::ScopedSimdMode auto_mode(simd::SimdMode::kAuto);
  // Past the gate auto stays on the deque, whatever the host CPU.
  EXPECT_FALSE(simd::EnvelopeEligible(simd::kEnvelopeAutoMaxBand + 1));
  // At/below the gate auto follows the runtime probe.
  EXPECT_EQ(simd::EnvelopeEligible(simd::kEnvelopeAutoMaxBand),
            simd::SimdActive());
  {
    const simd::ScopedSimdMode on(simd::SimdMode::kOn);
    EXPECT_TRUE(simd::EnvelopeEligible(simd::kEnvelopeAutoMaxBand + 1));
  }
  {
    const simd::ScopedSimdMode off(simd::SimdMode::kOff);
    EXPECT_FALSE(simd::EnvelopeEligible(0));
  }
}

// --------------------------------------------------------------------------
// Measure parity: every registered measure, every length 1..130, bands
// {0, 1, n/8, n}. --simd=on must reproduce --simd=off bit for bit; auto
// must match both (it only picks between the two proven-identical paths).

TEST(SimdParityTest, EveryMeasureEveryLengthEveryBand) {
  for (size_t n = 1; n <= 130; ++n) {
    const std::vector<double> x = Walk(2 * n, n);
    const std::vector<double> y = Walk(2 * n + 1, n);
    for (const size_t band : {size_t{0}, size_t{1}, n / 8, n}) {
      MeasureParams params;
      params.band_cells = static_cast<long>(band);
      for (const MeasureInfo& info : RegisteredMeasures()) {
        // The derivative transform WARP_CHECKs a 3-point minimum.
        if (info.name == "ddtw" && n < 3) continue;
        const SeriesMeasure fn = MakeMeasure(info.name, params);
        const double scalar = Eval(fn, x, y, simd::SimdMode::kOff);
        const double forced = Eval(fn, x, y, simd::SimdMode::kOn);
        const double autod = Eval(fn, x, y, simd::SimdMode::kAuto);
        EXPECT_EQ(scalar, forced)
            << info.name << " n=" << n << " band=" << band << " (on)";
        EXPECT_EQ(scalar, autod)
            << info.name << " n=" << n << " band=" << band << " (auto)";
      }
    }
  }
}

// Unequal lengths exercise the rectangular wavefront geometry (full-band
// rectangles) and every kernel's rectangular row ranges.
TEST(SimdParityTest, EveryMeasureUnequalLengths) {
  const std::pair<size_t, size_t> shapes[] = {
      {64, 96}, {96, 64}, {1, 130}, {130, 1}, {33, 7}, {130, 129}, {17, 16}};
  for (const auto& [n, m] : shapes) {
    const std::vector<double> x = Walk(500 + n, n);
    const std::vector<double> y = Walk(700 + m, m);
    const size_t longest = std::max(n, m);
    for (const size_t band : {size_t{1}, longest / 8, longest}) {
      MeasureParams params;
      params.band_cells = static_cast<long>(band);
      // The default ratio-suggested omega needs equal lengths.
      params.adtw_omega = 0.5;
      for (const MeasureInfo& info : RegisteredMeasures()) {
        // ed and wdtw WARP_CHECK equal lengths.
        if (info.name == "ed" || info.name == "wdtw") continue;
        if (info.name == "ddtw" && std::min(n, m) < 3) continue;
        const SeriesMeasure fn = MakeMeasure(info.name, params);
        const double scalar = Eval(fn, x, y, simd::SimdMode::kOff);
        const double forced = Eval(fn, x, y, simd::SimdMode::kOn);
        EXPECT_EQ(scalar, forced)
            << info.name << " n=" << n << " m=" << m << " band=" << band;
      }
    }
  }
}

// The parallel pairwise fill must stay bitwise-deterministic in every
// mode at 1, 2, and 8 threads (workers all read the process-wide mode).
TEST(SimdParityTest, PairwiseMatrixEveryThreadCount) {
  std::vector<std::vector<double>> series;
  for (uint64_t k = 0; k < 6; ++k) series.push_back(Walk(300 + k, 100));
  MeasureParams params;
  params.band_cells = 12;
  for (const MeasureInfo& info : RegisteredMeasures()) {
    const SeriesMeasure fn = MakeMeasure(info.name, params);
    DistanceMatrix reference(series.size());
    {
      const simd::ScopedSimdMode off(simd::SimdMode::kOff);
      reference = ComputePairwiseMatrix(series, fn, 1);
    }
    for (const simd::SimdMode mode :
         {simd::SimdMode::kOn, simd::SimdMode::kAuto}) {
      const simd::ScopedSimdMode scoped(mode);
      for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        const DistanceMatrix matrix =
            ComputePairwiseMatrix(series, fn, threads);
        for (size_t i = 0; i < series.size(); ++i) {
          for (size_t j = i + 1; j < series.size(); ++j) {
            EXPECT_EQ(matrix.at(i, j), reference.at(i, j))
                << info.name << " pair (" << i << "," << j << ") threads="
                << threads << " mode=" << simd::SimdModeName(mode);
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Elementwise kernels.

TEST(SimdParityTest, EnvelopeMatchesScalarAndNaive) {
  for (size_t n = 1; n <= 130; ++n) {
    const std::vector<double> v = Walk(n, n);
    for (const size_t band : {size_t{0}, size_t{1}, n / 8, n, 2 * n}) {
      Envelope scalar;
      Envelope forced;
      {
        const simd::ScopedSimdMode off(simd::SimdMode::kOff);
        scalar = ComputeEnvelope(v, band);
      }
      {
        const simd::ScopedSimdMode on(simd::SimdMode::kOn);
        forced = ComputeEnvelope(v, band);
      }
      const Envelope naive = ComputeEnvelopeNaive(v, band);
      ASSERT_EQ(forced.upper.size(), n);
      ASSERT_EQ(forced.lower.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(forced.upper[i], scalar.upper[i])
            << "n=" << n << " band=" << band << " i=" << i;
        EXPECT_EQ(forced.lower[i], scalar.lower[i])
            << "n=" << n << " band=" << band << " i=" << i;
        EXPECT_EQ(forced.upper[i], naive.upper[i])
            << "n=" << n << " band=" << band << " i=" << i;
        EXPECT_EQ(forced.lower[i], naive.lower[i])
            << "n=" << n << " band=" << band << " i=" << i;
      }
    }
  }
}

TEST(SimdParityTest, LbKeoghMatchesScalarIncludingAbandon) {
  for (size_t n = 1; n <= 130; ++n) {
    const std::vector<double> q = Walk(1000 + n, n);
    const std::vector<double> c = Walk(2000 + n, n);
    const Envelope env = ComputeEnvelope(q, std::max<size_t>(1, n / 16));
    for (const CostKind cost : {CostKind::kSquared, CostKind::kAbsolute}) {
      double scalar_full = 0.0;
      {
        const simd::ScopedSimdMode off(simd::SimdMode::kOff);
        scalar_full = LbKeogh(env, c, cost);
      }
      // Abandon thresholds straddling the result (hit and miss both
      // ways), plus the degenerate negative bound that abandons at the
      // very first check.
      for (const double abandon : {kNoAbandon, scalar_full * 0.5,
                                   scalar_full * 2.0 + 1.0, -1.0}) {
        double scalar = 0.0;
        double forced = 0.0;
        {
          const simd::ScopedSimdMode off(simd::SimdMode::kOff);
          scalar = LbKeogh(env, c, cost, abandon);
        }
        {
          const simd::ScopedSimdMode on(simd::SimdMode::kOn);
          forced = LbKeogh(env, c, cost, abandon);
        }
        EXPECT_EQ(forced, scalar)
            << "n=" << n << " cost=" << static_cast<int>(cost)
            << " abandon=" << abandon;
      }
    }
  }
}

TEST(SimdParityTest, ZNormEveryLength) {
  for (size_t n = 1; n <= 130; ++n) {
    std::vector<double> scalar = Walk(4000 + n, n);
    std::vector<double> forced = scalar;
    {
      const simd::ScopedSimdMode off(simd::SimdMode::kOff);
      ZNormalizeInPlace(scalar);
    }
    {
      const simd::ScopedSimdMode on(simd::SimdMode::kOn);
      ZNormalizeInPlace(forced);
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(forced[i], scalar[i]) << "n=" << n << " i=" << i;
    }
  }
}

// --------------------------------------------------------------------------
// The lane-parallel LB_Kim candidate batches feed kill decisions in the
// 1-NN cascade; predictions, distances, and cascade stats must not move.

TEST(SimdParityTest, NnClassifierCascadeParity) {
  gen::GestureOptions options;
  options.length = 80;
  options.num_classes = 4;
  options.seed = 71;
  const Dataset data = gen::MakeGestureDataset(8, options);
  const auto [train, test] = data.StratifiedSplit(0.5);
  const AcceleratedNnClassifier classifier(train, 6);

  for (const TimeSeries& query : test.series()) {
    Prediction scalar;
    Prediction forced;
    {
      const simd::ScopedSimdMode off(simd::SimdMode::kOff);
      scalar = classifier.Classify(query.view());
    }
    {
      const simd::ScopedSimdMode on(simd::SimdMode::kOn);
      forced = classifier.Classify(query.view());
    }
    EXPECT_EQ(forced.label, scalar.label);
    EXPECT_EQ(forced.nn_index, scalar.nn_index);
    EXPECT_EQ(forced.distance, scalar.distance);

    {
      const simd::ScopedSimdMode off(simd::SimdMode::kOff);
      scalar = classifier.ClassifyKnn(query.view(), 3);
    }
    {
      const simd::ScopedSimdMode on(simd::SimdMode::kOn);
      forced = classifier.ClassifyKnn(query.view(), 3);
    }
    EXPECT_EQ(forced.label, scalar.label);
    EXPECT_EQ(forced.distance, scalar.distance);
  }

  ClassificationStats scalar_stats;
  ClassificationStats forced_stats;
  {
    const simd::ScopedSimdMode off(simd::SimdMode::kOff);
    scalar_stats = classifier.Evaluate(test, 2);
  }
  {
    const simd::ScopedSimdMode on(simd::SimdMode::kOn);
    forced_stats = classifier.Evaluate(test, 2);
  }
  EXPECT_EQ(forced_stats.accuracy, scalar_stats.accuracy);
  EXPECT_EQ(forced_stats.correct, scalar_stats.correct);
}

}  // namespace
}  // namespace warp
