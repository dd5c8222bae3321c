// The one wrap-or-fallback vector type behind every SIMD kernel.
//
// `vdouble` is a fixed-width pack of doubles: AVX2 (4 lanes) on x86,
// NEON (2 lanes) on arm64, and a plain array fallback (4 lanes)
// everywhere else or when the build opts out via WARP_SIMD=OFF. All
// three backends implement the same operation set with the same
// per-lane semantics, so a kernel written against vdouble computes
// bit-identical results on every backend — the fallback is not an
// approximation, it is the same arithmetic run one lane at a time.
//
// This header is the only file in the repository allowed to include
// <immintrin.h> / <arm_neon.h> (enforced by scripts/lint.sh); every
// other SIMD consumer goes through this type.
//
// Determinism notes (docs/SIMD.md):
//   * MinPreferFirst/MaxPreferFirst mirror the scalar tie idiom
//     `if (b < a) a = b;` — the FIRST argument survives ties, matching
//     the engine's first-minimal-candidate rule exactly.
//   * Abs clears the sign bit, which is precisely std::fabs.
//   * No fused multiply-add is ever emitted from these wrappers: each
//     named operation maps to one rounding, the same rounding the
//     scalar expression performs.

#ifndef WARP_SIMD_VDOUBLE_H_
#define WARP_SIMD_VDOUBLE_H_

#include <cstddef>
#include <cstdint>

// Defined (to 0 or 1) by CMake via the WARP_SIMD option; default on for
// builds that bypass CMake.
#ifndef WARP_SIMD_ENABLED
#define WARP_SIMD_ENABLED 1
#endif

#if WARP_SIMD_ENABLED && defined(__AVX2__)
#define WARP_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif WARP_SIMD_ENABLED && defined(__aarch64__)
#define WARP_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define WARP_SIMD_BACKEND_SCALAR 1
#include <cmath>
#endif

namespace warp {
namespace simd {

#if defined(WARP_SIMD_BACKEND_AVX2)

inline constexpr size_t kLanes = 4;
inline constexpr const char* kBackendName = "avx2";
inline constexpr bool kVectorBackend = true;

struct vdouble {
  __m256d v;

  static vdouble Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static vdouble Broadcast(double x) { return {_mm256_set1_pd(x)}; }

  // Loads the first `count` lanes (count in [0, kLanes]); the rest read
  // as +0.0. Never touches memory past p[count - 1].
  static vdouble LoadMasked(const double* p, size_t count) {
    return {_mm256_maskload_pd(p, TailMask(count))};
  }

  void Store(double* p) const { _mm256_storeu_pd(p, v); }

  // Stores the first `count` lanes; memory past p[count - 1] untouched.
  void StoreMasked(double* p, size_t count) const {
    _mm256_maskstore_pd(p, TailMask(count), v);
  }

  double Lane(size_t i) const {
    alignas(32) double lanes[kLanes];
    _mm256_store_pd(lanes, v);
    return lanes[i];
  }

  friend vdouble operator+(vdouble a, vdouble b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend vdouble operator-(vdouble a, vdouble b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend vdouble operator*(vdouble a, vdouble b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }

  // Lanewise `if (b < a) a = b;` — the first operand survives ties.
  friend vdouble MinPreferFirst(vdouble a, vdouble b) {
    return {_mm256_blendv_pd(a.v, b.v, _mm256_cmp_pd(b.v, a.v, _CMP_LT_OQ))};
  }
  friend vdouble MaxPreferFirst(vdouble a, vdouble b) {
    return {_mm256_blendv_pd(a.v, b.v, _mm256_cmp_pd(b.v, a.v, _CMP_GT_OQ))};
  }

  friend vdouble Abs(vdouble a) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    return {_mm256_andnot_pd(sign, a.v)};
  }

  // True when any lane of v lies strictly outside [lo, hi].
  friend bool AnyOutside(vdouble val, vdouble lo, vdouble hi) {
    const __m256d above = _mm256_cmp_pd(val.v, hi.v, _CMP_GT_OQ);
    const __m256d below = _mm256_cmp_pd(val.v, lo.v, _CMP_LT_OQ);
    return _mm256_movemask_pd(_mm256_or_pd(above, below)) != 0;
  }

  // Lanes below `count` from a, the rest from b; count >= kLanes keeps
  // all of a.
  friend vdouble SelectFirst(size_t count, vdouble a, vdouble b) {
    return {_mm256_blendv_pd(b.v, a.v, _mm256_castsi256_pd(TailMask(count)))};
  }

  // The smallest lane.
  friend double MinLane(vdouble a) {
    const __m128d half = _mm_min_pd(_mm256_castpd256_pd128(a.v),
                                    _mm256_extractf128_pd(a.v, 1));
    return _mm_cvtsd_f64(_mm_min_sd(half, _mm_unpackhi_pd(half, half)));
  }

 private:
  static __m256i TailMask(size_t count) {
    // Lane l is loaded/stored when its 64-bit mask value is negative.
    const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(count)),
                              lane);
  }
};

#elif defined(WARP_SIMD_BACKEND_NEON)

inline constexpr size_t kLanes = 2;
inline constexpr const char* kBackendName = "neon";
inline constexpr bool kVectorBackend = true;

struct vdouble {
  float64x2_t v;

  static vdouble Load(const double* p) { return {vld1q_f64(p)}; }
  static vdouble Broadcast(double x) { return {vdupq_n_f64(x)}; }

  static vdouble LoadMasked(const double* p, size_t count) {
    float64x2_t r = vdupq_n_f64(0.0);
    if (count >= 1) r = vsetq_lane_f64(p[0], r, 0);
    if (count >= 2) r = vsetq_lane_f64(p[1], r, 1);
    return {r};
  }

  void Store(double* p) const { vst1q_f64(p, v); }

  void StoreMasked(double* p, size_t count) const {
    if (count >= 1) p[0] = vgetq_lane_f64(v, 0);
    if (count >= 2) p[1] = vgetq_lane_f64(v, 1);
  }

  double Lane(size_t i) const {
    return i == 0 ? vgetq_lane_f64(v, 0) : vgetq_lane_f64(v, 1);
  }

  friend vdouble operator+(vdouble a, vdouble b) {
    return {vaddq_f64(a.v, b.v)};
  }
  friend vdouble operator-(vdouble a, vdouble b) {
    return {vsubq_f64(a.v, b.v)};
  }
  friend vdouble operator*(vdouble a, vdouble b) {
    return {vmulq_f64(a.v, b.v)};
  }

  friend vdouble MinPreferFirst(vdouble a, vdouble b) {
    return {vbslq_f64(vcltq_f64(b.v, a.v), b.v, a.v)};
  }
  friend vdouble MaxPreferFirst(vdouble a, vdouble b) {
    return {vbslq_f64(vcgtq_f64(b.v, a.v), b.v, a.v)};
  }

  friend vdouble Abs(vdouble a) { return {vabsq_f64(a.v)}; }

  friend bool AnyOutside(vdouble val, vdouble lo, vdouble hi) {
    const uint64x2_t above = vcgtq_f64(val.v, hi.v);
    const uint64x2_t below = vcltq_f64(val.v, lo.v);
    const uint64x2_t either = vorrq_u64(above, below);
    return (vgetq_lane_u64(either, 0) | vgetq_lane_u64(either, 1)) != 0;
  }

  friend vdouble SelectFirst(size_t count, vdouble a, vdouble b) {
    if (count >= 2) return a;
    if (count == 0) return b;
    return {vsetq_lane_f64(vgetq_lane_f64(a.v, 0), b.v, 0)};
  }

  friend double MinLane(vdouble a) { return vminvq_f64(a.v); }
};

#else  // scalar fallback

inline constexpr size_t kLanes = 4;
inline constexpr const char* kBackendName = "scalar";
inline constexpr bool kVectorBackend = false;

struct vdouble {
  double v[kLanes];

  static vdouble Load(const double* p) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = p[l];
    return r;
  }
  static vdouble Broadcast(double x) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
  }
  static vdouble LoadMasked(const double* p, size_t count) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = l < count ? p[l] : 0.0;
    return r;
  }

  void Store(double* p) const {
    for (size_t l = 0; l < kLanes; ++l) p[l] = v[l];
  }
  void StoreMasked(double* p, size_t count) const {
    for (size_t l = 0; l < kLanes && l < count; ++l) p[l] = v[l];
  }

  double Lane(size_t i) const { return v[i]; }

  friend vdouble operator+(vdouble a, vdouble b) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  friend vdouble operator-(vdouble a, vdouble b) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  friend vdouble operator*(vdouble a, vdouble b) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }

  friend vdouble MinPreferFirst(vdouble a, vdouble b) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = b.v[l] < a.v[l] ? b.v[l] : a.v[l];
    return r;
  }
  friend vdouble MaxPreferFirst(vdouble a, vdouble b) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = b.v[l] > a.v[l] ? b.v[l] : a.v[l];
    return r;
  }

  friend vdouble Abs(vdouble a) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = std::fabs(a.v[l]);
    return r;
  }

  friend bool AnyOutside(vdouble val, vdouble lo, vdouble hi) {
    for (size_t l = 0; l < kLanes; ++l) {
      if (val.v[l] > hi.v[l] || val.v[l] < lo.v[l]) return true;
    }
    return false;
  }

  friend vdouble SelectFirst(size_t count, vdouble a, vdouble b) {
    vdouble r;
    for (size_t l = 0; l < kLanes; ++l) r.v[l] = l < count ? a.v[l] : b.v[l];
    return r;
  }

  friend double MinLane(vdouble a) {
    double best = a.v[0];
    for (size_t l = 1; l < kLanes; ++l) {
      if (a.v[l] < best) best = a.v[l];
    }
    return best;
  }
};

#endif

}  // namespace simd
}  // namespace warp

#endif  // WARP_SIMD_VDOUBLE_H_
