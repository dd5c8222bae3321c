// Shared implementation of the serve tool entry point.
//
// `warp_serve` and `warp_cli serve` are the same server with two front
// doors; both parse the same flags and call ServeToolMain() from here so
// the behavior cannot drift. Header-only to keep tools/ free of its own
// library target.
//
//   --port=N        listen port (default 0 = kernel-assigned; the bound
//                   port is printed on the "listening" line)
//   --threads=N     query-engine workers (default 1; 0 = all cores)
//   --shards=N      store shards per dataset (default 1)
//   --cache=N       result-cache capacity in entries (default 256; 0 off)
//   --bands=F,F     window fractions indexed per dataset (default .05,.1)
//   --data=NAME=PATH         load a UCR file (repeatable)
//   --gen=NAME=COUNT,LEN[,SEED]  synthesize a random-walk dataset
//                   (repeatable; default seed 42)
//   --snapshot-dir=PATH  auto-register every *.wsnap snapshot in PATH at
//                   startup (sorted filename order; docs/SERVING.md)
//   --max-queue-depth=N  batcher admission gate: pending submissions
//                   beyond N fast-fail with error "overloaded" (0 = off)
//   --worker --shard-id=K --shard-count=N
//                   cluster worker mode: serve only shard K of N; every
//                   query must arrive stamped "shard":K (docs/SERVING.md,
//                   "Multi-process cluster")
//   --simd=MODE     SIMD kernel dispatch: on | off | auto (default auto;
//                   docs/SIMD.md)
//
// A numeric flag that is not a whole integer in its range (--port at most
// 65535, --shards at least 1, the rest at least 0) exits 2.

#ifndef WARP_TOOLS_SERVE_MAIN_H_
#define WARP_TOOLS_SERVE_MAIN_H_

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "warp/gen/random_walk.h"
#include "warp/serve/server.h"
#include "warp/simd/dispatch.h"

namespace warp {
namespace tools {

using ToolFlags = std::vector<std::pair<std::string, std::string>>;

// Parses --name / --name=value arguments from argv[start..); anything not
// starting with "--" is ignored (the caller owns positionals).
inline ToolFlags ParseToolFlags(int argc, char** argv, int start) {
  ToolFlags flags;
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.emplace_back(arg, "true");
    } else {
      flags.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
  return flags;
}

// A whole-string integer flag value in [min, max], stored into the
// option *out. Anything else is a misconfiguration the operator must see:
// it prints "<tool>: invalid --<key>=<value> (...)" and returns false
// (exit 2).
template <typename T>
bool ParseCountFlag(const char* tool, const std::string& key,
                    const std::string& value, long min, T* out,
                    long max = std::numeric_limits<int>::max()) {
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || end == nullptr || *end != '\0' || n < min ||
      n > max) {
    std::fprintf(stderr,
                 "%s: invalid --%s=%s (expected an integer from %ld to "
                 "%ld)\n",
                 tool, key.c_str(), value.c_str(), min, max);
    return false;
  }
  *out = static_cast<T>(n);
  return true;
}

inline std::vector<double> ParseFractionList(const std::string& text) {
  std::vector<double> fractions;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string piece = text.substr(start, comma - start);
    if (!piece.empty()) fractions.push_back(std::strtod(piece.c_str(), nullptr));
    start = comma + 1;
  }
  return fractions;
}

// Builds, preloads, and runs a server from parsed tool flags. Returns a
// process exit code.
inline int ServeToolMain(const ToolFlags& flags) {
  serve::ServerOptions options;
  std::vector<std::pair<std::string, std::string>> data_specs;
  std::vector<std::string> gen_specs;
  std::vector<std::string> snapshot_dirs;
  bool worker_mode = false;
  long worker_shard_id = 0;
  for (const auto& [key, value] : flags) {
    // Numeric flags shape the process (its port, threads, partition and
    // queues); a typo silently coerced to some default would be a
    // misconfiguration the operator never sees.
    bool valid = true;
    if (key == "port") {
      valid = ParseCountFlag("warp_serve", key, value, 0, &options.port,
                             65535);
    } else if (key == "threads") {
      valid = ParseCountFlag("warp_serve", key, value, 0, &options.threads);
    } else if (key == "shards" || key == "shard-count") {
      valid = ParseCountFlag("warp_serve", key, value, 1, &options.shards);
    } else if (key == "cache") {
      valid = ParseCountFlag("warp_serve", key, value, 0,
                             &options.cache_capacity);
    } else if (key == "max-queue-depth") {
      valid = ParseCountFlag("warp_serve", key, value, 0,
                             &options.max_queue_depth);
    } else if (key == "worker") {
      worker_mode = true;
    } else if (key == "shard-id") {
      valid = ParseCountFlag("warp_serve", key, value, 0, &worker_shard_id);
    } else if (key == "bands") {
      options.band_fractions = ParseFractionList(value);
    } else if (key == "data") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "warp_serve: --data expects NAME=PATH\n");
        return 1;
      }
      data_specs.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (key == "gen") {
      gen_specs.push_back(value);
    } else if (key == "snapshot-dir") {
      snapshot_dirs.push_back(value);
    } else if (key == "profile") {
      // Consumed by warp_cli's Main (snapshot + print around this call)
      // so `warp_cli serve --profile` profiles an in-process server run;
      // tolerated here so the flag doesn't fail the serve front doors.
    } else if (key == "simd") {
      simd::SimdMode mode;
      if (!simd::ParseSimdMode(value, &mode)) {
        std::fprintf(stderr,
                     "warp_serve: invalid --simd=%s (expected on, off, or "
                     "auto)\n",
                     value.c_str());
        return 2;
      }
      simd::SetSimdMode(mode);
    } else {
      std::fprintf(stderr, "warp_serve: unknown flag --%s\n", key.c_str());
      return 1;
    }
    if (!valid) return 2;
  }

  if (worker_mode) {
    // Worker mode binds shard-id to the partition: the id must name one
    // of the --shard-count shards or every stamped query would be
    // refused as mis-routed.
    if (worker_shard_id >= static_cast<long>(options.shards)) {
      std::fprintf(stderr,
                   "warp_serve: --shard-id=%ld out of range for "
                   "--shard-count=%zu\n",
                   worker_shard_id, options.shards);
      return 2;
    }
    options.worker_shard = worker_shard_id;
  }

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
  for (const std::string& spec : gen_specs) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "warp_serve: --gen expects NAME=COUNT,LEN[,SEED]\n");
      return 1;
    }
    const std::string name = spec.substr(0, eq);
    char* cursor = nullptr;
    const std::string numbers = spec.substr(eq + 1);
    const long count = std::strtol(numbers.c_str(), &cursor, 10);
    long length = 0;
    long seed = 42;
    if (cursor != nullptr && *cursor == ',') {
      length = std::strtol(cursor + 1, &cursor, 10);
      if (cursor != nullptr && *cursor == ',') {
        seed = std::strtol(cursor + 1, nullptr, 10);
      }
    }
    if (count <= 0 || length <= 0) {
      std::fprintf(stderr, "warp_serve: bad --gen spec '%s'\n", spec.c_str());
      return 1;
    }
    server.RegisterDataset(
        name, gen::RandomWalkDataset(static_cast<size_t>(count),
                                     static_cast<size_t>(length),
                                     static_cast<uint64_t>(seed)));
  }
  return serve::RunServer(&server);
}

}  // namespace tools
}  // namespace warp

#endif  // WARP_TOOLS_SERVE_MAIN_H_
