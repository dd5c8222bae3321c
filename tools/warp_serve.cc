// warp_serve — the loopback query server as a standalone binary.
//
//   warp_serve --gen=rw=200,128 --threads=4
//   warp_serve --data=train=datasets/GunPoint_TRAIN.tsv --port=7070
//
// Prints "warp_serve listening on 127.0.0.1:<port>" once bound, then
// serves line-delimited JSON requests until a client sends
// {"op":"shutdown"}. Protocol: docs/SERVING.md. Flags: `warp_serve --help`
// (tools/serve_main.h, shared with `warp_cli serve`).

#include <cstdio>

#include "serve_main.h"
#include "warp/simd/dispatch.h"

int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(warp::tools::kServeHelp, stdout);
    return 0;
  }
  warp::simd::SimdFlag(flags);
  return warp::tools::ServeToolMain(flags);
}
