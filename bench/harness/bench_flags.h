// The shared flags of the experiment harnesses, on warp::Flags
// (warp/common/flags.h). Every bench binary accepts scaling flags (sample
// sizes, repetition counts) so the paper-scale sweeps can run on bigger
// hardware while the defaults finish in seconds; each calls Finalize()
// before any work, so a typo never silently runs the default configuration.

#ifndef WARP_BENCH_HARNESS_BENCH_FLAGS_H_
#define WARP_BENCH_HARNESS_BENCH_FLAGS_H_

#include <cstdio>
#include <string>

#include "warp/common/flags.h"
#include "warp/common/parallel.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace bench {

using Flags = ::warp::Flags;
// Shared --simd=on|off|auto flag (docs/SIMD.md).
using simd::SimdFlag;

// --threads, for a harness that also times its sweep on a pool. The other
// harnesses measure one core, the paper's configuration, and take no
// --threads. Default 1; --threads=0 means auto (WARP_THREADS env, else
// hardware_concurrency); --threads=N uses N pool workers.
inline size_t ThreadsFlag(Flags& flags) {
  const size_t value = flags.GetCount("threads", 1);
  return value == 0 ? DefaultThreadCount() : value;
}

// Shared --json=<path> flag: destination for the machine-readable
// warp-bench-v1 report (docs/OBSERVABILITY.md); empty means console only.
inline std::string JsonFlag(Flags& flags) {
  return flags.GetString("json", "");
}

// Standard experiment banner so every harness's output is self-describing.
inline void PrintBanner(const char* experiment_id, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment_id, description);
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace warp

#endif  // WARP_BENCH_HARNESS_BENCH_FLAGS_H_
