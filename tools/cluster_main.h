// Shared implementation of the cluster launcher entry point.
//
// `warp_cluster` and `warp_cli cluster` (flags-only form) are the same
// launcher with two front doors; both parse the same flags and call
// ClusterToolMain() from here so the behavior cannot drift. The launcher
// runs the supervisor (N `warp_serve --worker` processes re-fed from the
// snapshot directory) and the router (the client-facing front end) in
// one process; see docs/SERVING.md, "Multi-process cluster".
//
//   --shards=N            worker processes / store shards (default 1)
//   --snapshot-dir=PATH   *.wsnap directory every worker loads; also the
//                         restart handoff medium (required in practice —
//                         without it workers restart empty)
//   --port=N              router listen port (default 0 = auto; the
//                         bound port is printed as "ready port=<P>")
//   --threads=N           scan threads per worker (default 1)
//   --cache=N             result-cache entries per worker (default 256)
//   --max-queue-depth=N   per-worker batcher admission gate (default 1024)
//   --worker-bin=PATH     warp_serve binary to spawn (default: the
//                         warp_serve next to this launcher)
//   --restart-backoff-ms=N      first restart delay (default 200)
//   --restart-backoff-max-ms=N  backoff ceiling (default 5000)
//   --ping-interval-ms=N  worker liveness ping cadence; 0 disables
//
// A numeric flag that is not a whole integer in its range (--port at most
// 65535, --shards at least 1, the rest at least 0) exits 2.

#ifndef WARP_TOOLS_CLUSTER_MAIN_H_
#define WARP_TOOLS_CLUSTER_MAIN_H_

#include <cstdio>
#include <string>

#include "serve_main.h"
#include "warp/cluster/router.h"
#include "warp/cluster/supervisor.h"

namespace warp {
namespace tools {

// The warp_serve build expected to sit next to this launcher binary;
// falls back to PATH resolution when argv0 carries no directory.
inline std::string SiblingWorkerBinary(const char* argv0) {
  const std::string path = argv0 == nullptr ? "" : argv0;
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "warp_serve";
  return path.substr(0, slash + 1) + "warp_serve";
}

// Builds and runs a supervisor + router from parsed tool flags. Returns
// a process exit code.
inline int ClusterToolMain(const ToolFlags& flags,
                           const std::string& default_worker_binary) {
  cluster::SupervisorOptions sup;
  cluster::RouterOptions router_options;
  sup.worker_binary = default_worker_binary;
  for (const auto& [key, value] : flags) {
    bool valid = true;
    if (key == "shards") {
      valid = ParseCountFlag("warp_cluster", key, value, 1, &sup.shards);
    } else if (key == "snapshot-dir") {
      sup.snapshot_dir = value;
    } else if (key == "port") {
      valid = ParseCountFlag("warp_cluster", key, value, 0,
                             &router_options.port, 65535);
    } else if (key == "threads") {
      valid = ParseCountFlag("warp_cluster", key, value, 0, &sup.threads);
    } else if (key == "cache") {
      valid =
          ParseCountFlag("warp_cluster", key, value, 0, &sup.cache_capacity);
    } else if (key == "max-queue-depth") {
      valid =
          ParseCountFlag("warp_cluster", key, value, 0, &sup.max_queue_depth);
    } else if (key == "worker-bin") {
      sup.worker_binary = value;
    } else if (key == "restart-backoff-ms") {
      valid = ParseCountFlag("warp_cluster", key, value, 0,
                             &sup.restart_backoff_ms);
    } else if (key == "restart-backoff-max-ms") {
      valid = ParseCountFlag("warp_cluster", key, value, 0,
                             &sup.restart_backoff_max_ms);
    } else if (key == "ping-interval-ms") {
      valid =
          ParseCountFlag("warp_cluster", key, value, 0, &sup.ping_interval_ms);
    } else if (key == "profile") {
      // Tolerated for the warp_cli front door, like `warp_cli serve`.
    } else {
      std::fprintf(stderr, "warp_cluster: unknown flag --%s\n", key.c_str());
      return 1;
    }
    if (!valid) return 2;
  }

  cluster::Supervisor supervisor(sup);
  std::string error;
  if (!supervisor.Start(&error)) {
    std::fprintf(stderr, "warp_cluster: %s\n", error.c_str());
    return 1;
  }
  // One line per worker before the router's ready line, so harnesses can
  // scrape pids for fault injection (scripts/cluster_smoke.sh).
  for (const cluster::WorkerStatus& status : supervisor.StatusAll()) {
    std::printf("worker shard=%zu pid=%ld port=%d\n", status.shard_id,
                status.pid, status.port);
  }
  std::fflush(stdout);

  cluster::Router router(router_options, &supervisor);
  const int status = cluster::RunRouter(&router);
  supervisor.Stop();
  return status;
}

}  // namespace tools
}  // namespace warp

#endif  // WARP_TOOLS_CLUSTER_MAIN_H_
