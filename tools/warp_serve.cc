// warp_serve — the loopback query server.
//
//   warp_serve --gen=rw=200,128 --threads=4
//   warp_serve --data=train=datasets/GunPoint_TRAIN.tsv --port=7070
//
// Prints "warp_serve listening on 127.0.0.1:<port>" once bound, then
// serves line-delimited JSON requests until a client sends
// {"op":"shutdown"}. Protocol: docs/SERVING.md. Flags: `warp_serve --help`
// (kHelp below).

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "warp/common/flags.h"
#include "warp/gen/random_walk.h"
#include "warp/serve/server.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace {

constexpr char kHelp[] =
    R"(warp_serve — loopback DTW query server (docs/SERVING.md)
  --port=N                 listen port (default 0 = kernel-assigned; the
                           bound port is printed on the "ready" line)
  --threads=N              engine workers (default 1; 0 = all cores)
  --shards=N               store shards per dataset (default 1)
  --cache=N                result-cache entries (default 256; 0 = off)
  --bands=F,F              indexed window fractions, each from 0 to 1
                           (default 0.05,0.1)
  --data=NAME=PATH         serve a UCR file (repeatable)
  --gen=NAME=COUNT,LEN[,SEED]  serve a synthetic random-walk set
                           (repeatable; default seed 42)
  --snapshot-dir=PATH      auto-load the *.wsnap snapshots in PATH at
                           startup, in sorted filename order (repeatable)
  --max-queue-depth=N      admission gate: pending submissions beyond N
                           fast-fail "overloaded" (default 1024; 0 = off)
  --worker --shard-id=K --shards=N
                           cluster worker mode: serve only shard K of N;
                           queries must arrive stamped "shard":K
  --simd=MODE              on | off | auto (default auto; docs/SIMD.md)
Every flag is checked before any dataset loads: a bad value (--port at
most 65535, --shards at least 1, --shard-id below --shards) or an unknown
flag exits 2; a dataset or snapshot that fails to load exits 1. A
snapshot whose header claims more payload than the file holds is
refused; a query's "window" must be a fraction from 0 to 1; when accept
runs out of descriptors (EMFILE) the server waits 100 ms and retries.
)";

// Reads the server flags, then builds, preloads, and runs a server.
// Returns a process exit code.
int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(kHelp, stdout);
    return 0;
  }
  simd::SimdFlag(flags);
  serve::ServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0, 0, 65535));
  options.threads = flags.GetCount("threads", options.threads);
  options.shards = flags.GetCount("shards", options.shards, 1);
  options.cache_capacity = flags.GetCount("cache", options.cache_capacity);
  options.max_queue_depth =
      flags.GetCount("max-queue-depth", options.max_queue_depth);
  options.band_fractions =
      flags.GetDoubles("bands", options.band_fractions, 0.0, 1.0);
  if (flags.GetBool("worker", false)) {
    // The id must name one of the --shards shards, or every stamped query
    // would be refused as mis-routed.
    options.worker_shard = static_cast<long>(flags.GetInt(
        "shard-id", 0, 0, static_cast<int64_t>(options.shards) - 1));
  }
  std::vector<std::pair<std::string, std::string>> data_specs;
  for (const std::string& spec : flags.GetAll("data")) {
    const size_t eq = spec.find('=');
    if (eq == 0 || eq == std::string::npos) {
      flags.Invalid("data", spec, "NAME=PATH");
    }
    data_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }
  // --gen=NAME=COUNT,LEN[,SEED]: COUNT random walks of length LEN.
  std::vector<std::pair<std::string, std::vector<int64_t>>> gen_specs;
  for (const std::string& spec : flags.GetAll("gen")) {
    const size_t eq = spec.find('=');
    const std::vector<std::string> fields =
        SplitList(eq == std::string::npos ? "" : spec.substr(eq + 1));
    std::vector<int64_t> numbers = {0, 0, 42};
    bool valid = eq != 0 && fields.size() >= 2 && fields.size() <= 3;
    for (size_t i = 0; valid && i < fields.size(); ++i) {
      valid = ReadNumber<int64_t>(fields[i], i < 2 ? 1 : 0,
                                  i < 2 ? INT_MAX : Flags::kNoMax, &numbers[i]);
    }
    if (!valid) {
      flags.Invalid("gen", spec,
                    "NAME=COUNT,LEN[,SEED] with COUNT and LEN at least 1 and "
                    "SEED at least 0");
    }
    gen_specs.emplace_back(spec.substr(0, eq), numbers);
  }
  const std::vector<std::string> snapshot_dirs = flags.GetAll("snapshot-dir");
  flags.Finalize();

  serve::Server server(std::move(options));
  for (const std::string& dir : snapshot_dirs) {
    std::string error;
    if (!server.LoadSnapshotDir(dir, &error)) {
      // Refuse-don't-guess: a corrupt or incompatible snapshot stops
      // startup rather than silently serving a partial dataset list.
      std::fprintf(stderr, "warp_serve: --snapshot-dir=%s: %s\n", dir.c_str(),
                   error.c_str());
      return 1;
    }
  }
  for (const auto& [name, path] : data_specs) {
    std::string error;
    if (!server.LoadDataset(name, path, {}, &error)) {
      std::fprintf(stderr, "warp_serve: %s: %s\n", name.c_str(),
                   error.c_str());
      return 1;
    }
  }
  for (const auto& [name, numbers] : gen_specs) {
    server.RegisterDataset(
        name, gen::RandomWalkDataset(static_cast<size_t>(numbers[0]),
                                     static_cast<size_t>(numbers[1]),
                                     static_cast<uint64_t>(numbers[2])));
  }
  return serve::RunServer(&server);
}

}  // namespace
}  // namespace warp

int main(int argc, char** argv) { return warp::Main(argc, argv); }
