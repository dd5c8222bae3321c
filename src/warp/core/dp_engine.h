// The one banded two-row DP engine behind every elastic measure.
//
// Each elastic kernel in this library — full/banded/abandoning DTW, WDTW,
// ADTW, DDTW, LCSS, ERP, MSM, and both FastDTW base cases — is the same
// machine-sympathetic inner loop wearing a different local-cost
// recurrence. This header factors that loop out once and expresses every
// kernel as a policy bundle over it:
//
//   * RowRange   — which columns row i visits (Sakoe–Chiba band, square
//                  band).
//   * Policy     — the recurrence itself: top-row boundary, per-row left
//                  boundary, the cell combination, and the final readout.
//   * kAbandoning — compile-time early-abandon row-minimum hook.
//
// The engine owns the correctness-critical details the hand-rolled copies
// used to each maintain separately: the +1 column offset (index j+1 holds
// D(i, j); index 0 is the virtual D(i, -1)) and the carried left/diag
// scalars that keep the serial dependency in registers. Every measure
// enters through dp::BandedTwoRowEngine (an unconstrained measure passes
// band max(n, m)), the only caller of dp::TwoRowEngine.
//
// Scratch rows live in a DtwWorkspace. Reusing one across calls makes the
// steady state allocation-free; every (re)allocation bumps the
// `workspace_allocs` counter so tests and bench reports can prove it.
//
// A second, materialized engine (dp::MaterializedDp) backs the
// path-recovering variants: it fills the window's cells, then walks back
// from (n-1, m-1) to (0, 0) along minimal predecessors under a pluggable
// tie order (diagonal-preferring for this library's kernels, up/left/
// diagonal for the reference FastDTW port).

#ifndef WARP_CORE_DP_ENGINE_H_
#define WARP_CORE_DP_ENGINE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "warp/common/assert.h"
#include "warp/core/warping_path.h"
#include "warp/core/window.h"
#include "warp/common/metrics.h"
#include "warp/simd/dispatch.h"
#include "warp/simd/dp_simd.h"
#include "warp/ts/multi_series.h"

namespace warp {

// Reusable scratch rows for the two-row engine. Passing the same
// workspace across calls in a tight loop makes the steady state
// allocation-free: PrepareRows only touches the allocator when the
// requested width exceeds what the workspace already owns, and each such
// growth bumps obs::Counter::kWorkspaceAllocs.
struct DtwWorkspace {
  std::vector<double> prev;
  std::vector<double> cur;

  // Wavefront scratch (dp::TryWavefront): three rotating anti-diagonal
  // buffers plus padded copies of x and reversed y, all padded by
  // simd::kWavePad so overhanging vector steps stay in bounds; the top/
  // left gap-prefix arrays are only sized when a policy needs boundary
  // values (ERP). Sized, not filled: the sweep writes each slot before it
  // reads it, except padding, which feeds only discarded overhang lanes.
  std::vector<double> wave_diag[3];
  std::vector<double> wave_x;
  std::vector<double> wave_y_rev;
  std::vector<double> wave_top;
  std::vector<double> wave_left;

  std::vector<double> residual;  // Cascade::Distance's LB_Keogh suffix sums.

  void PrepareRows(size_t cols) {
    if (cols > prev.capacity() || cols > cur.capacity()) {
      WARP_COUNT(obs::Counter::kWorkspaceAllocs);
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    prev.assign(cols, kInf);
    cur.assign(cols, kInf);
  }

  void PrepareResidual(size_t cols) {
    const size_t len = cols + simd::kWavePad;  // Padding is never a value.
    if (len > residual.capacity()) WARP_COUNT(obs::Counter::kWorkspaceAllocs);
    residual.resize(len);
  }

  void PrepareWave(size_t rows, size_t cols, bool boundaries) {
    const size_t diag_len = rows + simd::kWavePad;
    const size_t y_len = cols + simd::kWavePad;
    bool grows = diag_len > wave_diag[0].capacity() ||
                 diag_len > wave_diag[1].capacity() ||
                 diag_len > wave_diag[2].capacity() ||
                 diag_len > wave_x.capacity() || y_len > wave_y_rev.capacity();
    if (boundaries) {
      grows = grows || cols > wave_top.capacity() ||
              rows > wave_left.capacity();
    }
    if (grows) WARP_COUNT(obs::Counter::kWorkspaceAllocs);
    for (std::vector<double>& d : wave_diag) d.resize(diag_len);
    wave_x.resize(diag_len);
    wave_y_rev.resize(y_len);
    if (boundaries) {
      wave_top.resize(cols);
      wave_left.resize(rows);
    }
  }
};

namespace dp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Sentinel for "do not publish this count to the obs registry". The DTW
// family passes real counter ids; the measures that never counted (WDTW,
// ADTW, LCSS, ERP, MSM) pass this.
inline constexpr obs::Counter kNoCounter = obs::Counter::kNumCounters;

inline void CountMaybe(obs::Counter counter, uint64_t amount) {
  if (counter != kNoCounter) WARP_COUNT_ADD(counter, amount);
}

// Where the engine publishes its work. `cells` is added on every exit
// path (success or abandon); `abandons` on an early abandon. `cells_out`
// is an optional per-call sink independent of the registry.
struct EngineCounters {
  obs::Counter cells = kNoCounter;
  obs::Counter abandons = kNoCounter;
  uint64_t* cells_out = nullptr;
};

// ---------------------------------------------------------------------------
// Row ranges. Each yields the inclusive column range of row i and must
// satisfy the WarpingWindow invariants (monotone ranges, reachable,
// corners included); the engine's buffer reuse relies on the monotone
// ranges (see TwoRowEngineImpl).

// Equal-length Sakoe–Chiba band: pure integer clamping, no rounding. The
// all-pairs experiments hit this path, so it matters that it is
// branch-lean.
struct SquareBandRowRange {
  size_t band;
  size_t last_col;
  std::pair<uint32_t, uint32_t> operator()(size_t i) const {
    const size_t lo = i > band ? i - band : 0;
    const size_t hi = i + band < last_col ? i + band : last_col;
    return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
  }
};

// Sakoe–Chiba per-row range, generalized to unequal lengths by centering
// the band on the scaled diagonal. The `lo(i+1) - 1` patch widens hi just
// enough to keep consecutive rows connected when the diagonal advances by
// more than one column per row; this reproduces exactly what
// WarpingWindow::SakoeChiba + Canonicalize produce, without materializing
// the window.
struct BandRowRange {
  size_t n;
  int64_t last_col;
  int64_t band;
  double slope;

  int64_t LoAt(size_t i) const {
    const int64_t center =
        static_cast<int64_t>(std::llround(static_cast<double>(i) * slope));
    return std::clamp<int64_t>(center - band, 0, last_col);
  }

  std::pair<uint32_t, uint32_t> operator()(size_t i) const {
    const int64_t center =
        static_cast<int64_t>(std::llround(static_cast<double>(i) * slope));
    const int64_t lo = std::clamp<int64_t>(center - band, 0, last_col);
    int64_t hi = std::clamp<int64_t>(center + band, 0, last_col);
    if (i + 1 < n) {
      const int64_t next_lo = LoAt(i + 1);
      if (next_lo - 1 > hi) hi = next_lo - 1;
    } else {
      hi = last_col;
    }
    return {static_cast<uint32_t>(lo), static_cast<uint32_t>(hi)};
  }
};

inline BandRowRange MakeBandRowRange(size_t n, size_t m, size_t band) {
  BandRowRange range;
  range.n = n;
  range.last_col = static_cast<int64_t>(m) - 1;
  range.band = static_cast<int64_t>(band);
  range.slope = n > 1 ? static_cast<double>(m - 1) / static_cast<double>(n - 1)
                      : 0.0;
  return range;
}

// ---------------------------------------------------------------------------
// Cell costs.

// 1-D local cost bound to two spans.
template <typename Cost>
struct SeriesCellCost {
  const double* x;
  const double* y;
  Cost cost;
  double operator()(size_t i, size_t j) const { return cost(x[i], y[j]); }
};

// Multichannel (dependent) local cost: sum of per-channel costs.
template <typename Cost>
struct MultiCellCost {
  const MultiSeries* x;
  const MultiSeries* y;
  Cost cost;
  double operator()(size_t i, size_t j) const {
    double sum = 0.0;
    for (size_t c = 0; c < x->num_channels(); ++c) {
      sum += cost(x->at(c, i), y->at(c, j));
    }
    return sum;
  }
};

// ---------------------------------------------------------------------------
// Recurrence policies. The engine calls, in order:
//   InitTopRow(top, m)  — once; writes the virtual row -1 over a kInf-
//                         filled array of m+1 slots (slot j+1 = D(-1, j),
//                         slot 0 = D(-1, -1)).
//   LeftBoundary(i)     — once per row whose range starts at column 0;
//                         the value of the virtual D(i, -1). May mutate
//                         policy state (ERP accumulates its gap prefix).
//   Cell(i, j, diag, up, left) — the recurrence; diag = D(i-1, j-1),
//                         up = D(i-1, j), left = D(i, j-1).
//   Finish(row, m)      — once; reads the answer out of the final row.

// Classic DTW recurrence: min(diag, up, left) + cost(i, j).
template <typename CellCostFn>
struct MinPlusPolicy {
  CellCostFn cost;

  void InitTopRow(double* top, size_t /*m*/) { top[0] = 0.0; }
  double LeftBoundary(size_t /*i*/) const { return kInf; }
  double Cell(size_t i, size_t j, double diag, double up, double left) const {
    double best = diag;
    if (up < best) best = up;
    if (left < best) best = left;
    return best + cost(i, j);
  }
  double Finish(const double* row, size_t m) const { return row[m]; }
};

// ADTW (Herrmann & Webb, 2023): the amercement `omega` is charged on the
// two non-diagonal predecessors before the minimum is taken.
template <typename CellCostFn>
struct AdtwPolicy {
  CellCostFn cost;
  double omega;

  void InitTopRow(double* top, size_t /*m*/) { top[0] = 0.0; }
  double LeftBoundary(size_t /*i*/) const { return kInf; }
  double Cell(size_t i, size_t j, double diag, double up, double left) const {
    double best = diag;                            // Diagonal: no penalty.
    if (up + omega < best) best = up + omega;      // Stretch x.
    if (left + omega < best) best = left + omega;  // Stretch y.
    return best + cost(i, j);
  }
  double Finish(const double* row, size_t m) const { return row[m]; }
};

// ERP (Chen & Ng, 2004): L1 edit distance with gaps charged against a
// fixed reference value. Both boundaries are gap prefix sums; the left
// boundary accumulates across rows, which is why this policy is stateful
// and the engine takes policies by non-const reference.
struct ErpPolicy {
  const double* x;
  const double* y;
  double gap;
  double left_acc = 0.0;  // D(i, -1): everything in x[0..i] gapped.

  void InitTopRow(double* top, size_t m) {
    top[0] = 0.0;
    for (size_t j = 0; j < m; ++j) {
      top[j + 1] = top[j] + std::fabs(y[j] - gap);
    }
  }
  double LeftBoundary(size_t i) {
    left_acc += std::fabs(x[i] - gap);
    return left_acc;
  }
  double Cell(size_t i, size_t j, double diag, double up, double left) const {
    const double match = diag + std::fabs(x[i] - y[j]);
    const double gap_x = up + std::fabs(x[i] - gap);
    const double gap_y = left + std::fabs(y[j] - gap);
    return std::min({match, gap_x, gap_y});
  }
  double Finish(const double* row, size_t m) const { return row[m]; }
};

// LCSS (Vlachos et al., 2002) as a max-DP over match counts. Counts are
// small non-negative integers, exact in double; the caller casts the
// result back to size_t. Matches are only allowed inside the band,
// carries are free — so the band gates the match case inside Cell rather
// than narrowing the row range.
struct LcssPolicy {
  const double* x;
  const double* y;
  double epsilon;
  size_t band;

  void InitTopRow(double* top, size_t m) { std::fill_n(top, m + 1, 0.0); }
  double LeftBoundary(size_t /*i*/) const { return 0.0; }
  double Cell(size_t i, size_t j, double diag, double up, double left) const {
    const size_t dev = i > j ? i - j : j - i;
    if (dev <= band && std::fabs(x[i] - y[j]) <= epsilon) {
      return diag + 1.0;
    }
    return std::max(up, left);
  }
  double Finish(const double* row, size_t m) const { return row[m]; }
};

// MSM (Stefan, Athitsos & Das, 2013). The first row and column have their
// own recurrences (there is no virtual row/column in the classical
// formulation), so Cell dispatches on i == 0 / j == 0 and ignores the
// unreachable predecessors.
struct MsmPolicy {
  const double* x;
  const double* y;
  double c;

  // MSM's split/merge cost: moving `value` next to `adjacent` when the
  // opposite series sits at `opposite`. Free-of-extras (just c) when
  // value lies between them, otherwise c plus the distance to the nearer.
  double MoveCost(double value, double adjacent, double opposite) const {
    if ((adjacent <= value && value <= opposite) ||
        (adjacent >= value && value >= opposite)) {
      return c;
    }
    return c + std::min(std::fabs(value - adjacent),
                        std::fabs(value - opposite));
  }

  void InitTopRow(double* /*top*/, size_t /*m*/) {}  // Row 0 ignores it.
  double LeftBoundary(size_t /*i*/) const { return kInf; }
  double Cell(size_t i, size_t j, double diag, double up, double left) const {
    if (i == 0) {
      if (j == 0) return std::fabs(x[0] - y[0]);
      return left + MoveCost(y[j], y[j - 1], x[0]);
    }
    if (j == 0) return up + MoveCost(x[i], x[i - 1], y[0]);
    const double match = diag + std::fabs(x[i] - y[j]);
    const double split_x = up + MoveCost(x[i], x[i - 1], y[j]);
    const double merge_y = left + MoveCost(y[j], y[j - 1], x[i]);
    return std::min({match, split_x, merge_y});
  }
  double Finish(const double* row, size_t m) const { return row[m]; }
};

// ---------------------------------------------------------------------------
// SIMD wavefront eligibility.
//
// A policy is wavefront-eligible when its recurrence vectorizes across an
// anti-diagonal with exactly the scalar per-cell operations (bitwise
// contract, see warp/simd/dp_simd.h): the plain min-plus family over a
// 1-D series cost (DTW/cDTW/DDTW), its amerced variant (ADTW), and ERP.
// Everything else — WDTW's per-cell weight lookup, LCSS's band-gated max,
// MSM's three-way move costs, multichannel costs — keeps the row engine.

template <typename Policy>
struct WaveSpec {
  static constexpr bool kEligible = false;
};

template <typename Cost>
struct WaveSpec<MinPlusPolicy<SeriesCellCost<Cost>>> {
  static constexpr bool kEligible = true;
  static constexpr bool kErp = false;
  static constexpr bool kAmerced = false;
  using CostFn = Cost;
  static const double* X(const MinPlusPolicy<SeriesCellCost<Cost>>& p) {
    return p.cost.x;
  }
  static const double* Y(const MinPlusPolicy<SeriesCellCost<Cost>>& p) {
    return p.cost.y;
  }
  static double Omega(const MinPlusPolicy<SeriesCellCost<Cost>>&) {
    return 0.0;
  }
};

template <typename Cost>
struct WaveSpec<AdtwPolicy<SeriesCellCost<Cost>>> {
  static constexpr bool kEligible = true;
  static constexpr bool kErp = false;
  static constexpr bool kAmerced = true;
  using CostFn = Cost;
  static const double* X(const AdtwPolicy<SeriesCellCost<Cost>>& p) {
    return p.cost.x;
  }
  static const double* Y(const AdtwPolicy<SeriesCellCost<Cost>>& p) {
    return p.cost.y;
  }
  static double Omega(const AdtwPolicy<SeriesCellCost<Cost>>& p) {
    return p.omega;
  }
};

template <>
struct WaveSpec<ErpPolicy> {
  static constexpr bool kEligible = true;
  static constexpr bool kErp = true;
  static const double* X(const ErpPolicy& p) { return p.x; }
  static const double* Y(const ErpPolicy& p) { return p.y; }
};

// Runs the wavefront sweep instead of the row engine when the geometry
// and runtime dispatch allow it; the caller checks that the policy is
// eligible. Returns true (result in *result) on success; false means "use
// the row engine" and touches nothing. Geometry: a square Sakoe–Chiba
// band (n == m, any band), or unequal lengths with a band wide enough
// that every row is full (BandRowRange spans every column exactly when
// band >= m - 1). A finite `abandon_above` runs the abandoning sweep,
// which tests anti-diagonal pairs (dp_simd.h); ERP never abandons.
template <typename Policy>
bool TryWavefront(size_t n, size_t m, size_t band, const Policy& policy,
                  double abandon_above, const double* residual,
                  DtwWorkspace* workspace, const EngineCounters& counters,
                  double* result) {
  using Spec = WaveSpec<Policy>;
  static_assert(Spec::kEligible);
  if (n == 0 || m == 0) return false;
  size_t width;
  int64_t wave_band;
  if (n == m) {
    width = band < n ? std::min(2 * band + 1, n) : n;
    wave_band = static_cast<int64_t>(std::min(band, 2 * (n + m)));
  } else {
    if (band < m - 1) return false;
    width = std::min(n, m);
    wave_band = static_cast<int64_t>(2 * (n + m));
  }
  if (!simd::WavefrontEligible(width)) return false;

  DtwWorkspace local;
  DtwWorkspace* ws = workspace != nullptr ? workspace : &local;
  ws->PrepareWave(n, m, Spec::kErp);
  const double* x = Spec::X(policy);
  const double* y = Spec::Y(policy);
  double* xp = ws->wave_x.data();
  double* yr = ws->wave_y_rev.data();
  for (size_t i = 0; i < n; ++i) xp[i] = x[i];
  for (size_t k = 0; k < m; ++k) yr[k] = y[m - 1 - k];
  double* b0 = ws->wave_diag[0].data() + 1;
  double* b1 = ws->wave_diag[1].data() + 1;
  double* b2 = ws->wave_diag[2].data() + 1;

  simd::WaveStats stats;
  double value;
  if constexpr (Spec::kErp) {
    WARP_DCHECK(abandon_above == kInf);
    // Gap prefixes in exactly ErpPolicy's sequential accumulation
    // order (InitTopRow / LeftBoundary), so the injected boundary
    // values are bitwise the row engine's.
    double* top = ws->wave_top.data();
    double* lft = ws->wave_left.data();
    double acc = 0.0;
    for (size_t j = 0; j < m; ++j) {
      acc += std::fabs(y[j] - policy.gap);
      top[j] = acc;
    }
    acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += std::fabs(x[i] - policy.gap);
      lft[i] = acc;
    }
    value = simd::WaveErp(xp, static_cast<int64_t>(n), yr,
                          static_cast<int64_t>(m), policy.gap, top, lft, b0,
                          b1, b2, &stats);
  } else {
    value = simd::WaveMinPlus<typename Spec::CostFn, Spec::kAmerced>(
        xp, static_cast<int64_t>(n), yr, static_cast<int64_t>(m), wave_band,
        Spec::Omega(policy), b0, b1, b2, &stats, abandon_above, residual);
  }

  // A sweep that runs to the end visits exactly the row engine's band
  // cells (the same set, enumerated by diagonals instead of rows).
  if (counters.cells_out != nullptr) *counters.cells_out = stats.cells;
  CountMaybe(counters.cells, stats.cells);
  if (stats.abandoned) CountMaybe(counters.abandons, 1);
  WARP_COUNT_ADD(obs::Counter::kSimdBlocks, stats.blocks);
  WARP_COUNT_ADD(obs::Counter::kSimdScalarTail, stats.tail);
  *result = value;
  return true;
}

// ---------------------------------------------------------------------------
// The distance-only engine.
//
// Rows are visited in order; `row_range(i)` yields the inclusive column
// range of row i. DP arrays use a +1 column offset so that index j+1
// holds D(i, j); index 0 holds the virtual D(i, -1), and the virtual row
// -1 is written by the policy's InitTopRow.
//
// Buffer reuse needs no per-row reset. PrepareRows refills both rows with
// +inf on every call, and row ranges are monotone: lo(i) and hi(i) never
// decrease (SquareBandRowRange and BandRowRange). Row i reads
// prev[lo(i) .. hi(i)+1]. Row i-1 wrote prev[lo(i-1) .. hi(i-1)+1], and
// no earlier row of this call wrote past hi(i-1)+1, so every slot row i
// reads is either row i-1's or still +inf. tests/core/dp_engine_test.cc
// pins this with a poisoned workspace.
// An abandoning call stops once a row's minimum, plus the residual of the
// columns past the row, exceeds `abandon_above`.
template <bool kAbandoning, typename RowRangeFn, typename Policy>
double TwoRowEngineImpl(size_t n, size_t m, RowRangeFn&& row_range,
                        Policy& policy, double abandon_above,
                        DtwWorkspace* workspace,
                        const EngineCounters& counters,
                        const double* residual) {
  WARP_CHECK(n > 0 && m > 0);
  DtwWorkspace local;
  DtwWorkspace* ws = workspace != nullptr ? workspace : &local;
  ws->PrepareRows(m + 1);
  double* prev = ws->prev.data();
  double* cur = ws->cur.data();
  policy.InitTopRow(prev, m);

  uint64_t visited = 0;
  const auto report = [&] {
    if (counters.cells_out != nullptr) *counters.cells_out = visited;
    CountMaybe(counters.cells, visited);
  };

  for (size_t i = 0; i < n; ++i) {
    const auto [lo32, hi32] = row_range(i);
    const size_t lo = lo32;
    const size_t hi = hi32;
    WARP_DCHECK(lo <= hi && hi < m);
    // Virtual D(i, lo-1): the policy's left boundary when the row starts
    // at column 0 (row i+1 may read this slot as its diagonal
    // predecessor), unreachable otherwise.
    const double boundary = lo == 0 ? policy.LeftBoundary(i) : kInf;
    cur[lo] = boundary;

    // The carried scalars keep the recurrence's serial dependency in
    // registers: `left` is D(i, j-1), `diag` is D(i-1, j-1); prev[] is
    // only read once per cell and cur[] only written.
    const double* __restrict prev_row = prev;
    double* __restrict cur_row = cur;
    double left = boundary;
    double diag = prev_row[lo];
    double row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      const double up = prev_row[j + 1];  // D(i-1, j)
      const double value = policy.Cell(i, j, diag, up, left);
      cur_row[j + 1] = value;
      left = value;
      diag = up;
      if constexpr (kAbandoning) {
        if (value < row_min) row_min = value;
      }
    }
    visited += hi - lo + 1;
    if constexpr (kAbandoning) {
      if (residual != nullptr) row_min += residual[m - 1 - hi];
      if (row_min > abandon_above) {
        report();
        CountMaybe(counters.abandons, 1);
        return kInf;
      }
    }
    std::swap(prev, cur);
  }
  report();
  return policy.Finish(prev, m);
}

// Dispatches the abandon hook at compile time so the common
// non-abandoning path carries no per-cell branch.
template <typename RowRangeFn, typename Policy>
double TwoRowEngine(size_t n, size_t m, RowRangeFn&& row_range, Policy policy,
                    double abandon_above, DtwWorkspace* workspace,
                    const EngineCounters& counters,
                    const double* residual = nullptr) {
  if (abandon_above == kInf) {
    return TwoRowEngineImpl<false>(n, m, row_range, policy, abandon_above,
                                   workspace, counters, nullptr);
  }
  return TwoRowEngineImpl<true>(n, m, row_range, policy, abandon_above,
                                workspace, counters, residual);
}

// The one dispatch every elastic distance enters by; an unconstrained
// measure passes band max(n, m), whose rows span every column. Every call
// tries the SIMD wavefront first. The row engine then takes the integer
// fast path when the band is square (n == m); the generalized scaled-
// diagonal range produces identical ranges there, just with more
// arithmetic per row.
//
// `residual` (m + simd::kWavePad doubles) lower-bounds what a path still
// pays in the last k columns as residual[k]. It is summed apart from the
// DP, so fl(D + residual) can exceed the DP's own total on an exact tie;
// tests that add it use the bound widened by both sums' rounding.
template <typename Policy>
double BandedTwoRowEngine(size_t n, size_t m, size_t band, Policy policy,
                          double abandon_above = kInf,
                          DtwWorkspace* workspace = nullptr,
                          const EngineCounters& counters = {},
                          const double* residual = nullptr) {
  if (residual != nullptr) {
    constexpr double kEps = std::numeric_limits<double>::epsilon();
    const double slack = static_cast<double>(2 * (n + m) + 8) * kEps;
    abandon_above =
        std::nextafter(abandon_above + abandon_above * slack, kInf);
  }
  if constexpr (WaveSpec<Policy>::kEligible) {
    double wave_result;
    if (TryWavefront(n, m, band, policy, abandon_above, residual, workspace,
                     counters, &wave_result)) {
      return wave_result;
    }
  }
  if (n == m) {
    return TwoRowEngine(n, m, SquareBandRowRange{band, m - 1},
                        std::move(policy), abandon_above, workspace, counters,
                        residual);
  }
  return TwoRowEngine(n, m, MakeBandRowRange(n, m, band), std::move(policy),
                      abandon_above, workspace, counters, residual);
}

// ---------------------------------------------------------------------------
// The materialized (path-recovering) engine.
//
// Fills the cumulative-cost value of every window cell (flattened
// row-major with per-row offsets), then walks back from (n-1, m-1) to
// (0, 0) along minimal predecessors.

// Traceback tie orders. Candidates are probed in the policy's order; the
// first available candidate seeds the choice and later ones must be
// strictly smaller to replace it — exactly the first-minimal-candidate
// rule both ported implementations use.
enum class Move : int { kDiag = 0, kUp = 1, kLeft = 2 };

// This library's order: diagonal, up, left — ties prefer the diagonal
// step, which yields the shortest optimal path.
struct PreferDiagonalTie {
  static constexpr Move kOrder[3] = {Move::kDiag, Move::kUp, Move::kLeft};
};

// The reference fastdtw package's order: up, left, diagonal (the first
// minimal candidate of its min() over candidate tuples).
struct ReferenceTie {
  static constexpr Move kOrder[3] = {Move::kUp, Move::kLeft, Move::kDiag};
};

struct MaterializedResult {
  double distance = 0.0;
  std::vector<PathPoint> path;
  uint64_t cells_visited = 0;
};

template <typename Tie = PreferDiagonalTie, typename CellCostFn>
MaterializedResult MaterializedDp(size_t n, size_t m,
                                  const WarpingWindow& window,
                                  CellCostFn&& cell_cost,
                                  obs::Counter cells_counter = kNoCounter,
                                  obs::Counter bytes_counter = kNoCounter) {
  WARP_CHECK(window.rows() == n && window.cols() == m);
  std::string error;
  WARP_CHECK_MSG(window.Validate(&error), error.c_str());

  std::vector<uint64_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto& r = window.range(i);
    offsets[i + 1] = offsets[i] + (r.hi - r.lo + 1);
  }
  std::vector<double> cumulative(offsets[n]);
  CountMaybe(cells_counter, offsets[n]);
  CountMaybe(bytes_counter,
             offsets[n] * sizeof(double) + (n + 1) * sizeof(uint64_t));

  auto value_at = [&](size_t i, size_t j) -> double {
    const auto& r = window.range(i);
    if (j < r.lo || j > r.hi) return kInf;
    return cumulative[offsets[i] + (j - r.lo)];
  };

  for (size_t i = 0; i < n; ++i) {
    const auto& r = window.range(i);
    for (size_t j = r.lo; j <= r.hi; ++j) {
      double best;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        best = kInf;
        if (i > 0 && j > 0) best = value_at(i - 1, j - 1);
        if (i > 0) best = std::min(best, value_at(i - 1, j));
        if (j > 0) best = std::min(best, value_at(i, j - 1));
      }
      cumulative[offsets[i] + (j - r.lo)] = best + cell_cost(i, j);
    }
  }

  MaterializedResult result;
  result.cells_visited = offsets[n];
  result.distance = value_at(n - 1, m - 1);
  WARP_CHECK_MSG(std::isfinite(result.distance),
                 "window admits no complete warping path");

  // Traceback by value: cumulative values are immutable once written, so
  // re-deriving each step's first-minimal predecessor reproduces exactly
  // the parent a forward pointer would have recorded.
  size_t i = n - 1;
  size_t j = m - 1;
  result.path.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
  while (i > 0 || j > 0) {
    double best = kInf;
    int move = -1;
    for (const Move cand : Tie::kOrder) {
      const bool available = cand == Move::kDiag ? (i > 0 && j > 0)
                             : cand == Move::kUp ? i > 0
                                                 : j > 0;
      if (!available) continue;
      const double v = cand == Move::kDiag ? value_at(i - 1, j - 1)
                       : cand == Move::kUp ? value_at(i - 1, j)
                                           : value_at(i, j - 1);
      if (move < 0 || v < best) {
        best = v;
        move = static_cast<int>(cand);
      }
    }
    WARP_CHECK_MSG(move >= 0 && std::isfinite(best),
                   "traceback hit an unreachable cell");
    if (move == static_cast<int>(Move::kDiag)) {
      --i;
      --j;
    } else if (move == static_cast<int>(Move::kUp)) {
      --i;
    } else {
      --j;
    }
    result.path.push_back(
        {static_cast<uint32_t>(i), static_cast<uint32_t>(j)});
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

}  // namespace dp
}  // namespace warp

#endif  // WARP_CORE_DP_ENGINE_H_
