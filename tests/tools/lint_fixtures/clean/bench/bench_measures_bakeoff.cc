#include "harness/bench_flags.h"

int main(int argc, char** argv) {
  warp::bench::Flags flags(argc, argv);
  const bool json = JsonFlag(flags);
  const bool simd = SimdFlag(flags);
  flags.Finalize();
  (void)json;
  (void)simd;
  for (const auto& measure : RegisteredMeasures()) (void)measure;
  return 0;
}
