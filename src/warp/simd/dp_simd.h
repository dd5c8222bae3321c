// Anti-diagonal (wavefront) SIMD sweep for the banded min-plus DP.
//
// The two-row engine's inner loop carries a serial dependency — D(i, j)
// needs D(i, j-1) — so a row-order sweep is bound by the latency of one
// FP add per cell no matter how it is vectorized (we measured a
// "two-phase" row formulation at 0.73-0.87x of scalar; docs/SIMD.md has
// the full story). Cells on one anti-diagonal d = i + j, however, are
// mutually independent: every dependency of (i, d - i) lives on
// diagonals d-1 and d-2. Sweeping diagonal-by-diagonal turns the whole
// diagonal into straight-line vector code and amortizes the carried
// chain across it.
//
// Determinism contract: each cell performs EXACTLY the scalar policy's
// per-cell operations in the same per-cell order —
//   MinPreferFirst(MinPreferFirst(diag, up), left) + cost(i, j)
// — only the order cells are *scheduled* in changes, and no value is
// ever re-associated across cells. Results are therefore bitwise
// identical to the row engine on every input, which is why no golden
// value was re-pinned for this change (tests/core/simd_test.cc pins the
// parity; tests/core/golden_measures_test.cc pins the absolute values).
//
// Memory scheme ("+1 offset", diagonal edition): three rotating buffers
// hold diagonals d, d-1, d-2, indexed by the row i of cell (i, d - i)
// through a base pointer offset by one slot so index -1 is addressable.
// Slot s of diagonal d's buffer holds D(s, d - s); the slots just
// outside the computed range [ilo, ihi] hold the recurrence's boundary
// values (+inf for DTW/ADTW, gap prefixes for ERP) so the next two
// diagonals can read their out-of-range predecessors unconditionally.
// One slot per side suffices because ilo and ihi advance by at most one
// per diagonal.
//
// Ragged tails run as full overhanging vector steps: buffers and input
// copies are padded by kWavePad, the overhang lanes compute garbage,
// and a range argument shows no later read ever touches a garbage slot
// (every read of diagonal d's buffer lands in [ilo(d)-1, ihi(d)+1],
// which the sweep plus its two sentinel writes always covers).

#ifndef WARP_SIMD_DP_SIMD_H_
#define WARP_SIMD_DP_SIMD_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "warp/common/cost.h"
#include "warp/simd/vdouble.h"

namespace warp {
namespace simd {

// Padding (in doubles) past both ends of every wavefront buffer; covers
// the one-slot boundary offset plus a kLanes-1 lane overhang.
inline constexpr size_t kWavePad = 8;

static_assert(kWavePad >= kLanes + 2, "overhang must stay inside padding");

// An abandoning sweep reads the diagonal pair (d - 1, d) back after
// storing it when d % 8 == 7, one pair in four: testing every pair as it
// was computed cost 0.4-0.5 ns/cell on AVX2, this 0.1-0.2.
inline constexpr int64_t kAbandonTestPeriod = 8;

// Work accounting for one sweep, published by the caller into the obs
// registry (simd_blocks / simd_scalar_tail) and the engine counters.
struct WaveStats {
  uint64_t cells = 0;   // Band cells computed.
  uint64_t blocks = 0;  // Vector steps executed.
  uint64_t tail = 0;    // Overhang lanes computed and discarded.
  bool abandoned = false;
};

namespace internal {

inline constexpr double kWaveInf = std::numeric_limits<double>::infinity();

// The smallest stored cell of diagonal d's rows [ilo, ihi], each plus its
// residual; `res` is the residual at row ilo (nullptr: none). Overhang
// lanes hold garbage and are masked out.
inline double DiagonalMin(const double* diag, int64_t ilo, int64_t ihi,
                          const double* res) {
  const vdouble inf = vdouble::Broadcast(kWaveInf);
  vdouble best = inf;
  for (int64_t i = ilo; i <= ihi; i += static_cast<int64_t>(kLanes)) {
    vdouble v = vdouble::Load(diag + i);
    if (res != nullptr) {
      v = v + vdouble::Load(res);
      res += kLanes;
    }
    best = MinPreferFirst(
        best, SelectFirst(static_cast<size_t>(ihi - i + 1), v, inf));
  }
  return MinLane(best);
}

// Shared diagonal-sweep shell. Op supplies the seed cell, the vector
// recurrence, and the two boundary sentinel values; everything else —
// geometry, rotation, overhang, accounting — is policy-independent.
// kAbandon returns +inf once a tested pair's smallest D(i, j) +
// residual[m - 1 - j] exceeds `abandon_above`: every path visits diagonal
// d - 1 or d, costs are non-negative and fl(s + c) >= s, so the DP's own
// total does too. `residual` (m + kWavePad doubles) may be nullptr.
//
// Preconditions: b0/b1/b2 point one slot into arrays of at least
// n + kWavePad doubles, whose values are never read before the sweep
// writes them (Op::InitPrev writes the virtual diagonal's two slots);
// xpad holds x in an array of at least n + kWavePad doubles; yrev holds
// y reversed (yrev[k] = y[m-1-k]) in an array of at least m + kWavePad
// doubles.
//
// Out of line, as the plain sweep was before it had an abandoning twin:
// inlined beside that twin it read 1.40-1.47 ns/cell at N = 256, band 13
// against 1.25-1.30 out of line (AVX2).
template <bool kAbandon, typename Op>
[[gnu::noinline]] double WaveSweep(
    const Op& op, const double* xpad, int64_t n, const double* yrev,
    int64_t m, int64_t band, double* b0, double* b1, double* b2,
    WaveStats* stats, double abandon_above = kWaveInf,
    const double* residual = nullptr) {
  double* bufs[3] = {b0, b1, b2};
  op.InitPrev(bufs[2]);  // The virtual diagonal d = -1.
  bufs[0][0] = op.Seed();
  {
    // The seed diagonal's sentinels, same rule as every other diagonal.
    bufs[0][-1] = op.LowSentinel(0, 0);
    bufs[0][1] = op.HighSentinel(0, 0);
  }
  uint64_t cells = 1;
  uint64_t blocks = 0;
  const auto publish = [&](bool abandoned) {
    if (stats == nullptr) return;
    stats->cells = cells;
    stats->blocks = blocks;
    stats->tail = blocks * kLanes - (cells - 1);
    stats->abandoned = abandoned;
  };
  const int64_t lanes = static_cast<int64_t>(kLanes);
  const int64_t last_d = n + m - 2;
  int64_t prev_ilo = 0;  // Diagonal d - 1's rows, for the pair test.
  int64_t prev_ihi = 0;
  for (int64_t d = 1; d <= last_d; ++d) {
    double* cur = bufs[d % 3];
    const double* p1 = bufs[(d + 2) % 3];  // Diagonal d - 1.
    const double* p2 = bufs[(d + 1) % 3];  // Diagonal d - 2.
    // Row range of diagonal d: i in [ilo, ihi], j = d - i.
    int64_t ilo = 0;
    if (d - m + 1 > ilo) ilo = d - m + 1;
    {
      const int64_t num = d - band;  // ceil((d - band) / 2)
      const int64_t c = num >= 0 ? (num + 1) / 2 : num / 2;
      if (c > ilo) ilo = c;
    }
    int64_t ihi = n - 1;
    if (d < ihi) ihi = d;
    {
      const int64_t f = (d + band) / 2;  // floor; d + band >= 0 always
      if (f < ihi) ihi = f;
    }
    if (ilo <= ihi) {
      // y[d - i] == yrev[(m - 1 - d) + i]; the base can be negative, so
      // materialize the pointer at the first valid index and step it.
      const double* ys = yrev + ((m - 1 - d) + ilo);
      const double* xs = xpad + ilo;
      for (int64_t i = ilo; i <= ihi; i += lanes) {
        const vdouble xv = vdouble::Load(xs);
        const vdouble yv = vdouble::Load(ys);
        const vdouble diag = vdouble::Load(p2 + (i - 1));
        const vdouble up = vdouble::Load(p1 + (i - 1));
        const vdouble left = vdouble::Load(p1 + i);
        op.Cell(xv, yv, diag, up, left).Store(cur + i);
        xs += lanes;
        ys += lanes;
        ++blocks;
      }
      cells += static_cast<uint64_t>(ihi - ilo + 1);
    }
    cur[ilo - 1] = op.LowSentinel(d, ilo);
    cur[ihi + 1] = op.HighSentinel(d, ihi);
    if constexpr (kAbandon) {
      if (d % kAbandonTestPeriod == kAbandonTestPeriod - 1) {
        // Row i of diagonal e is column e - i: residual[(m - 1 - e) + i].
        const double* r = residual;
        const double pair_min = std::min(
            DiagonalMin(p1, prev_ilo, prev_ihi,
                        r != nullptr ? r + (m - d) + prev_ilo : nullptr),
            DiagonalMin(cur, ilo, ihi,
                        r != nullptr ? r + (m - 1 - d) + ilo : nullptr));
        if (pair_min > abandon_above) {
          publish(true);
          return kWaveInf;
        }
      }
      prev_ilo = ilo;
      prev_ihi = ihi;
    }
  }
  publish(false);
  return bufs[last_d % 3][n - 1];
}

template <typename Cost>
inline vdouble VectorCost(vdouble a, vdouble b) {
  if constexpr (Cost::kKind == CostKind::kSquared) {
    const vdouble d = a - b;
    return d * d;
  } else {
    return Abs(a - b);
  }
}

// DTW's min-plus recurrence, and ADTW's amerced variant when kAmerced:
// the omega penalty lands on the two non-diagonal predecessors before
// the (first-minimal) minimum, exactly as dp::AdtwPolicy::Cell.
template <typename Cost, bool kAmerced>
struct MinPlusOp {
  const double* x;
  const double* yrev;  // yrev[k] = y[m - 1 - k]
  int64_t m;
  vdouble omega_v;
  double omega;

  double Seed() const {
    // D(0,0): diag = D(-1,-1) = 0 always wins against +inf (+ omega).
    const Cost cost;
    return cost(x[0], yrev[m - 1]);
  }
  vdouble Cell(vdouble xv, vdouble yv, vdouble diag, vdouble up,
               vdouble left) const {
    vdouble a = up;
    vdouble b = left;
    if constexpr (kAmerced) {
      a = a + omega_v;
      b = b + omega_v;
    }
    const vdouble m1 = MinPreferFirst(diag, a);
    const vdouble m2 = MinPreferFirst(m1, b);
    return m2 + VectorCost<Cost>(xv, yv);
  }
  void InitPrev(double* prev) const { prev[-1] = prev[0] = kWaveInf; }
  double LowSentinel(int64_t /*d*/, int64_t /*ilo*/) const { return kWaveInf; }
  double HighSentinel(int64_t /*d*/, int64_t /*ihi*/) const { return kWaveInf; }
};

// ERP: L1 edit recurrence with gap prefix boundaries. top[j] = D(-1, j)
// and left[i] = D(i, -1) are precomputed by the caller with the same
// sequential accumulation order as dp::ErpPolicy's InitTopRow /
// LeftBoundary, and injected through the sentinel slots.
struct ErpOp {
  const double* x;
  const double* yrev;
  int64_t n;
  int64_t m;
  const double* top;
  const double* left;
  vdouble gap_v;
  double gap;

  double Seed() const {
    // Mirrors ErpPolicy::Cell at (0, 0): first-minimal of the three.
    const double x0 = x[0];
    const double y0 = yrev[m - 1];
    double best = std::fabs(x0 - y0);                  // match: diag = 0
    const double gap_x = top[0] + std::fabs(x0 - gap);  // up = D(-1, 0)
    if (gap_x < best) best = gap_x;
    const double gap_y = left[0] + std::fabs(y0 - gap);  // left = D(0, -1)
    if (gap_y < best) best = gap_y;
    return best;
  }
  vdouble Cell(vdouble xv, vdouble yv, vdouble diag, vdouble up,
               vdouble left_v) const {
    const vdouble match = diag + Abs(xv - yv);
    const vdouble gap_x = up + Abs(xv - gap_v);
    const vdouble gap_y = left_v + Abs(yv - gap_v);
    const vdouble m1 = MinPreferFirst(match, gap_x);
    return MinPreferFirst(m1, gap_y);
  }
  void InitPrev(double* prev) const {
    prev[-1] = top[0];   // D(-1, 0)
    prev[0] = left[0];   // D(0, -1)
  }
  // Slot s of diagonal d holds D(s, d - s); one slot outside [ilo, ihi]
  // that is a matrix boundary cell carries its gap prefix.
  double LowSentinel(int64_t d, int64_t ilo) const {
    return (ilo == 0 && d + 1 <= m - 1) ? top[d + 1] : kWaveInf;
  }
  double HighSentinel(int64_t d, int64_t ihi) const {
    return (ihi == d && d + 1 <= n - 1) ? left[d + 1] : kWaveInf;
  }
};

}  // namespace internal

// The min-plus / amerced wavefront. `band` is the Sakoe-Chiba band for
// n == m; pass 2 * (n + m) to sweep the full matrix (the band clamps
// become no-ops). Returns D(n-1, m-1), or +inf when it abandons against
// a finite `abandon_above` (internal::WaveSweep).
template <typename Cost, bool kAmerced>
double WaveMinPlus(const double* xpad, int64_t n, const double* yrev,
                   int64_t m, int64_t band, double omega, double* b0,
                   double* b1, double* b2, WaveStats* stats,
                   double abandon_above, const double* residual) {
  internal::MinPlusOp<Cost, kAmerced> op{
      xpad, yrev, m, vdouble::Broadcast(omega), omega};
  if (abandon_above == internal::kWaveInf) {
    return internal::WaveSweep<false>(op, xpad, n, yrev, m, band, b0, b1, b2,
                                      stats);
  }
  return internal::WaveSweep<true>(op, xpad, n, yrev, m, band, b0, b1, b2,
                                   stats, abandon_above, residual);
}

// The ERP wavefront over the full matrix. top/left are the gap prefix
// sums D(-1, j) / D(i, -1) (lengths m and n).
inline double WaveErp(const double* xpad, int64_t n, const double* yrev,
                      int64_t m, double gap, const double* top,
                      const double* left, double* b0, double* b1, double* b2,
                      WaveStats* stats) {
  internal::ErpOp op{xpad, yrev, n,   m,
                     top,  left, vdouble::Broadcast(gap), gap};
  return internal::WaveSweep<false>(op, xpad, n, yrev, m, 2 * (n + m), b0,
                                    b1, b2, stats);
}

}  // namespace simd
}  // namespace warp

#endif  // WARP_SIMD_DP_SIMD_H_
