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

// Shared --threads flag. Default 1 keeps every harness paper-faithful
// (single core); --threads=0 means auto (WARP_THREADS env, else
// hardware_concurrency); --threads=N uses N pool workers.
inline size_t ThreadsFlag(Flags& flags) {
  const size_t value = flags.GetCount("threads", 1);
  return value == 0 ? DefaultThreadCount() : value;
}

// Shared --threads handling for the harnesses that measure single-core by
// design (the paper's configuration). The flag is accepted and recorded in
// the report config so flag surfaces stay uniform across every bench
// binary, but a value above 1 prints a note instead of silently changing
// nothing — the harness convention is that flags never no-op quietly.
inline size_t SingleCoreThreadsFlag(Flags& flags) {
  const size_t threads = ThreadsFlag(flags);
  if (threads > 1) {
    std::fprintf(stderr,
                 "note: single-core harness; --threads=%zu is recorded in "
                 "the report but does not parallelize the measurement\n",
                 threads);
  }
  return threads;
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
