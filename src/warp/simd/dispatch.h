// Runtime SIMD dispatch: one process-wide mode, three answers.
//
// The build decides which vdouble backend exists (WARP_SIMD + target
// arch, see vdouble.h); this module decides, per process, whether the
// vector code paths actually run. The mode comes from the shared
// --simd=on|off|auto flag:
//
//   off   — scalar paths only; the reference behavior.
//   auto  — vector paths when a real vector backend is compiled in, the
//           CPU supports it, and the job is wide enough to win (the
//           wavefront sweep pays per-diagonal setup, so very narrow
//           bands stay scalar; see kWavefrontAutoMinWidth).
//   on    — force the vector-structured code paths unconditionally,
//           even on the scalar-fallback backend and below the auto
//           width gate. Results are identical by contract; this exists
//           so tests can pin SIMD/scalar parity at every size on every
//           build (tests/core/simd_test.cc).
//
// All answers are cheap (one relaxed atomic load) and safe to call from
// any thread; SetSimdMode is meant for main() and test setup.

#ifndef WARP_SIMD_DISPATCH_H_
#define WARP_SIMD_DISPATCH_H_

#include <cstddef>
#include <string_view>

namespace warp {

class Flags;

namespace simd {

enum class SimdMode { kOff, kOn, kAuto };

// Diagonals narrower than this lose to the scalar row sweep (the
// per-diagonal setup dominates); `auto` keeps them scalar. Measured on
// AVX2: width 13 runs at ~0.5x, width 25 at ~1.2x, width 95+ at 3.8x.
inline constexpr size_t kWavefrontAutoMinWidth = 16;

// The doubling envelope sweep does log2(2*band+1) passes where the
// monotonic deque does one, so wide bands hand the 4-lane gain back to
// the log factor; `auto` keeps them on the deque. Measured on AVX2
// (n = 256..4096): band 8 runs at ~1.6-1.8x, band 32 at ~1.2-1.6x,
// band 64 at ~0.7-1.1x, band 128+ at ~0.6-0.9x.
inline constexpr size_t kEnvelopeAutoMaxBand = 32;

// Parses "on" / "off" / "auto". Returns false (mode untouched) on
// anything else.
bool ParseSimdMode(std::string_view text, SimdMode* mode);
const char* SimdModeName(SimdMode mode);

void SetSimdMode(SimdMode mode);
SimdMode GetSimdMode();

// Every binary's --simd=on|off|auto flag (default auto): installs the
// mode process-wide and returns it.
SimdMode SimdFlag(Flags& flags);

// The compiled vdouble backend ("avx2", "neon", "scalar").
const char* SimdBackendName();

// True when a real vector backend is compiled in AND the running CPU
// supports it.
bool SimdRuntimeSupported();

// Should the elementwise vector kernels (z-norm, envelope combine,
// LB_Keogh block skip, LB_Kim batches) run?
bool SimdActive();

// Should the DP wavefront sweep run for a job whose widest anti-diagonal
// holds `width` cells? Adds the auto-mode width gate on top of
// SimdActive(); mode on bypasses the gate.
bool WavefrontEligible(size_t width);

// Should the doubling envelope sweep run for this Sakoe-Chiba band?
// Adds the auto-mode band gate on top of SimdActive(); mode on bypasses
// the gate.
bool EnvelopeEligible(size_t band);

// RAII mode override for benchmarks' scalar-vs-SIMD A/B twins and tests.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode) : saved_(GetSimdMode()) {
    SetSimdMode(mode);
  }
  ~ScopedSimdMode() { SetSimdMode(saved_); }
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  SimdMode saved_;
};

}  // namespace simd
}  // namespace warp

#endif  // WARP_SIMD_DISPATCH_H_
