#include "warp/simd/dispatch.h"

#include <atomic>

#include "warp/common/flags.h"
#include "warp/simd/vdouble.h"

namespace warp {
namespace simd {

namespace {

std::atomic<SimdMode> g_mode{SimdMode::kAuto};

bool DetectRuntimeSupport() {
#if defined(WARP_SIMD_BACKEND_AVX2)
  return __builtin_cpu_supports("avx2") != 0;
#elif defined(WARP_SIMD_BACKEND_NEON)
  return true;  // NEON is baseline on aarch64.
#else
  return false;
#endif
}

}  // namespace

bool ParseSimdMode(std::string_view text, SimdMode* mode) {
  if (text == "on") {
    *mode = SimdMode::kOn;
  } else if (text == "off") {
    *mode = SimdMode::kOff;
  } else if (text == "auto") {
    *mode = SimdMode::kAuto;
  } else {
    return false;
  }
  return true;
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kOff:
      return "off";
    case SimdMode::kOn:
      return "on";
    case SimdMode::kAuto:
    default:
      return "auto";
  }
}

void SetSimdMode(SimdMode mode) {
  g_mode.store(mode, std::memory_order_relaxed);
}

SimdMode GetSimdMode() { return g_mode.load(std::memory_order_relaxed); }

SimdMode SimdFlag(Flags& flags) {
  SimdMode mode = SimdMode::kAuto;
  ParseSimdMode(flags.GetWord("simd", "auto", {"on", "off", "auto"}), &mode);
  SetSimdMode(mode);
  return mode;
}

const char* SimdBackendName() { return kBackendName; }

bool SimdRuntimeSupported() {
  // The probe result never changes within a process.
  static const bool supported = kVectorBackend && DetectRuntimeSupport();
  return supported;
}

bool SimdActive() {
  switch (GetSimdMode()) {
    case SimdMode::kOff:
      return false;
    case SimdMode::kOn:
      return true;
    case SimdMode::kAuto:
    default:
      return SimdRuntimeSupported();
  }
}

bool WavefrontEligible(size_t width) {
  switch (GetSimdMode()) {
    case SimdMode::kOff:
      return false;
    case SimdMode::kOn:
      return true;
    case SimdMode::kAuto:
    default:
      return SimdRuntimeSupported() && width >= kWavefrontAutoMinWidth;
  }
}

bool EnvelopeEligible(size_t band) {
  switch (GetSimdMode()) {
    case SimdMode::kOff:
      return false;
    case SimdMode::kOn:
      return true;
    case SimdMode::kAuto:
    default:
      return SimdRuntimeSupported() && band <= kEnvelopeAutoMaxBand;
  }
}

}  // namespace simd
}  // namespace warp
