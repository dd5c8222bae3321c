// Golden-value pinning for every registered measure.
//
// The hexfloat constants below were captured from the library BEFORE the
// kernels were re-expressed on the shared two-row engine
// (warp/core/dp_engine.h); the refactor's contract is bitwise-identical
// output. Every comparison is exact (EXPECT_EQ on doubles), and the
// pairwise matrices are evaluated at 1, 2, and 8 threads — the parallel
// fill must reproduce the serial result bit for bit.
//
// If a pin ever fails: either a kernel's arithmetic changed (fix the
// kernel — reordering float operations is a behavior change here), or the
// change is intentional, in which case re-capture the constants and say
// so loudly in the commit message.

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/common/random.h"
#include "warp/core/adtw.h"
#include "warp/core/ddtw.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/dtw.h"
#include "warp/core/elastic.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/core/measure.h"
#include "warp/core/wdtw.h"
#include "warp/ts/multi_series.h"

namespace warp {
namespace {

// Fixed-seed Gaussian random walk — the golden input family. Seeds and
// lengths must never change: the pins below are functions of them.
std::vector<double> GoldenWalk(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> v(n);
  double x = 0.0;
  for (size_t i = 0; i < n; ++i) {
    x += rng.Gaussian();
    v[i] = x;
  }
  return v;
}

std::vector<std::vector<double>> GoldenSeries() {
  std::vector<std::vector<double>> s;
  for (uint64_t k = 0; k < 4; ++k) s.push_back(GoldenWalk(1000 + k, 64));
  return s;
}

constexpr size_t kBand64 = 6;   // llround(0.1 * 64).
constexpr size_t kBand96 = 10;  // llround(0.1 * 96).

struct MeasurePins {
  const char* name;
  // The 6 unordered pairs of the 4 golden walks, row-major:
  // (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
  std::array<double, 6> pairs;
};

// Captured pre-refactor with band = kBand64, squared cost, and each
// measure's registry defaults (wdtw g=0.05, adtw ratio-suggested omega at
// 0.1, lcss epsilon=0.1, erp gap=0, msm c=1, fastdtw radius=10).
const MeasurePins kPins[] = {
    {"ed",
     {0x1.38e08cadabe48p+9, 0x1.436e534e40e61p+11, 0x1.3540ac05a99e3p+13,
      0x1.26246f4b363cfp+12, 0x1.aa2193889324cp+13, 0x1.876095abdc91cp+11}},
    {"cdtw",
     {0x1.d458ce59abf3cp+8, 0x1.23ac36a1bc85bp+11, 0x1.31c54f850fc3p+13,
      0x1.033df3cfa35edp+12, 0x1.a54c0f7520067p+13, 0x1.543ac1b310fefp+11}},
    {"dtw",
     {0x1.b46e323930e62p+8, 0x1.4c71ab36b6b0ap+10, 0x1.2fb37c67648fp+13,
      0x1.779ac33406d8p+11, 0x1.a05eda14f4123p+13, 0x1.187a4d2743302p+11}},
    {"ddtw",
     {0x1.0f68f98ea7b4dp+4, 0x1.52ac84cb4404bp+4, 0x1.cb42e2eabc7fep+4,
      0x1.65179c5ad8db6p+4, 0x1.b34f42e52d5f9p+4, 0x1.7ab3eaf94a2d7p+4}},
    {"wdtw",
     {0x1.44566931e9ed8p+6, 0x1.afed443c5d6bdp+8, 0x1.9d97232ff9837p+10,
      0x1.80a3dde254c01p+9, 0x1.1da7c75757546p+11, 0x1.f38705ad60a2ep+8}},
    {"adtw",
     {0x1.f0fe5bef8408p+8, 0x1.a75e248fcc2c6p+10, 0x1.3540ac05a99e3p+13,
      0x1.c33356121748dp+11, 0x1.aa2193889324cp+13, 0x1.4c64484713685p+11}},
    {"lcss",
     {0x1.bp-1, 0x1.fp-1, 0x1.fp-1, 0x1.fp-1, 0x1.fp-1, 0x1.d8p-1}},
    {"erp",
     {0x1.27e3a2ce082c7p+7, 0x1.77009b86741ebp+8, 0x1.5b31db656ecfp+9,
      0x1.dc54a79cbc0fap+8, 0x1.8f39389ba56d8p+9, 0x1.55d6ddd690b12p+8}},
    {"msm",
     {0x1.7cc56791376c8p+6, 0x1.3b97f6fd01133p+7, 0x1.4f29b868d8e21p+7,
      0x1.370ba6eca5358p+7, 0x1.56bd4e2e1bf19p+7, 0x1.e309fa448efa2p+6}},
    {"fastdtw",
     {0x1.b46e323930e62p+8, 0x1.4c71ab36b6b0ap+10, 0x1.2fb37c67648fp+13,
      0x1.779ac33406d8p+11, 0x1.a05eda14f4123p+13, 0x1.187a4d2743302p+11}},
    {"fastdtw-ref",
     {0x1.b46e323930e62p+8, 0x1.4c71ab36b6b0ap+10, 0x1.2fb37c67648fp+13,
      0x1.779ac33406d8p+11, 0x1.a05eda14f4123p+13, 0x1.187a4d2743302p+11}},
};

const MeasurePins* FindPins(const std::string& name) {
  for (const MeasurePins& pins : kPins) {
    if (name == pins.name) return &pins;
  }
  return nullptr;
}

// Every registered measure, evaluated as a pairwise matrix at 1, 2, and 8
// threads, must reproduce its pre-refactor pins exactly.
TEST(GoldenMeasuresTest, PairwiseMatrixPinnedAtEveryThreadCount) {
  const std::vector<std::vector<double>> series = GoldenSeries();
  MeasureParams params;
  params.band_cells = static_cast<long>(kBand64);

  for (const MeasureInfo& info : RegisteredMeasures()) {
    const MeasurePins* pins = FindPins(info.name);
    ASSERT_NE(pins, nullptr)
        << "registered measure '" << info.name
        << "' has no golden pins — capture them and add a row";
    const SeriesMeasure fn = MakeMeasure(info.name, params);
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const DistanceMatrix matrix =
          ComputePairwiseMatrix(series, fn, threads);
      size_t k = 0;
      for (size_t i = 0; i < series.size(); ++i) {
        for (size_t j = i + 1; j < series.size(); ++j, ++k) {
          EXPECT_EQ(matrix.at(i, j), pins->pairs[k])
              << info.name << " pair (" << i << "," << j << ") at "
              << threads << " threads";
        }
      }
    }
  }
}

// No pinned measure has silently dropped out of the registry.
TEST(GoldenMeasuresTest, EveryPinnedMeasureIsRegistered) {
  for (const MeasurePins& pins : kPins) {
    EXPECT_TRUE(IsRegisteredMeasure(pins.name)) << pins.name;
  }
}

// Unequal-length pairs exercise the rectangular row ranges.
TEST(GoldenMeasuresTest, UnequalLengthPins) {
  const std::vector<double> a = GoldenWalk(1000, 64);
  const std::vector<double> u96 = GoldenWalk(2000, 96);

  EXPECT_EQ(CdtwDistance(a, u96, kBand96), 0x1.6b97007b84619p+13);
  EXPECT_EQ(DtwDistance(a, u96), 0x1.2678a586a9859p+13);
  EXPECT_EQ(DdtwDistance(a, u96, kBand96), 0x1.d13dbcbc531e1p+4);
  EXPECT_EQ(AdtwDistance(a, u96, 0.5), 0x1.28026da8a6afp+13);
  EXPECT_EQ(LcssDistance(a, u96, 0.1, kBand96), 0x1.e8p-1);
  EXPECT_EQ(ErpDistance(a, u96, 0.0), 0x1.0ca1b099530fdp+10);
  EXPECT_EQ(MsmDistance(a, u96, 1.0), 0x1.5537d2ed1d69bp+7);
  EXPECT_EQ(FastDtwDistance(a, u96, 10), 0x1.2678a586a9859p+13);
  EXPECT_EQ(ReferenceFastDtw(a, u96, 10).distance, 0x1.2678a586a9859p+13);
}

// Kernel-level pins beyond the registry surface: early abandoning, path
// recovery, FastDTW cell accounting, arbitrary windows, the absolute
// cost, and the multivariate kernels.
TEST(GoldenMeasuresTest, KernelPins) {
  const std::vector<std::vector<double>> s = GoldenSeries();

  EXPECT_EQ(CdtwDistanceAbandoning(s[0], s[1], kBand64, 1e30),
            0x1.d458ce59abf3cp+8);

  const DtwResult cdtw_path = Cdtw(s[0], s[1], kBand64);
  EXPECT_EQ(cdtw_path.distance, 0x1.d458ce59abf3cp+8);
  EXPECT_EQ(cdtw_path.path.size(), 93u);
  const DtwResult dtw_path = Dtw(s[0], s[1]);
  EXPECT_EQ(dtw_path.distance, 0x1.b46e323930e62p+8);
  EXPECT_EQ(dtw_path.path.size(), 104u);

  const DtwResult fast2 = FastDtw(s[0], s[1], 2);
  EXPECT_EQ(fast2.distance, 0x1.b46e323930e62p+8);
  EXPECT_EQ(fast2.path.size(), 104u);
  EXPECT_EQ(fast2.cells_visited, 1928u);
  const DtwResult ref2 = ReferenceFastDtw(s[0], s[1], 2);
  EXPECT_EQ(ref2.distance, 0x1.b46e323930e62p+8);
  EXPECT_EQ(ref2.path.size(), 104u);
  EXPECT_EQ(ref2.cells_visited, 1928u);

  EXPECT_EQ(WdtwDistance(s[0], s[1], 0.05, 64), 0x1.2d82e228b8e1cp+6);
  EXPECT_EQ(LcssLength(s[0], s[1], 0.1, kBand64), 10u);

  EXPECT_EQ(CdtwDistance(s[0], s[1], kBand64, CostKind::kAbsolute),
            0x1.f07765c1102adp+6);

  const MultiSeries mx({s[0], s[1]}, 0);
  const MultiSeries my({s[2], s[3]}, 0);
  EXPECT_EQ(MultiCdtwDistance(mx, my, kBand64), 0x1.f7a30886f8afbp+13);
  const DtwResult mfast = MultiFastDtw(mx, my, 4);
  EXPECT_EQ(mfast.distance, 0x1.f1ff155a29809p+13);
  EXPECT_EQ(mfast.path.size(), 90u);
}

}  // namespace
}  // namespace warp
