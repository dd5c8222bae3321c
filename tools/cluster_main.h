// Shared implementation of the cluster launcher entry point.
//
// `warp_cluster` and `warp_cli cluster` (flags-only form) are the same
// launcher with two front doors; both hand their warp::Flags to
// ClusterToolMain() here, so the behavior cannot drift. The launcher
// runs the supervisor (N `warp_serve --worker` processes re-fed from the
// snapshot directory) and the router (the client-facing front end) in
// one process; see docs/SERVING.md, "Multi-process cluster".
// kClusterHelp is the flag reference.

#ifndef WARP_TOOLS_CLUSTER_MAIN_H_
#define WARP_TOOLS_CLUSTER_MAIN_H_

#include <atomic>
#include <cstdio>
#include <string>

#include "warp/cluster/proc.h"
#include "warp/cluster/router.h"
#include "warp/cluster/supervisor.h"
#include "warp/common/flags.h"

namespace warp {
namespace tools {

inline constexpr char kClusterHelp[] =
    R"(warp_cluster — multi-process sharded DTW serving (docs/SERVING.md)
  --shards=N                 worker processes / store shards (default 1)
  --snapshot-dir=PATH        *.wsnap dir loaded by every worker and re-fed
                             on restart (without it workers restart empty)
  --port=N                   router port (default 0 = auto; printed as
                             "ready port=<P>")
  --threads=N                scan threads per worker (default 1)
  --cache=N                  result-cache entries per worker (default 256)
  --max-queue-depth=N        per-worker admission gate (default 1024)
  --worker-bin=PATH          warp_serve binary (default: the sibling)
  --restart-backoff-ms=N     first restart delay (default 200)
  --restart-backoff-max-ms=N backoff ceiling (default 5000)
  --ping-interval-ms=N       liveness ping cadence; 0 disables
Every flag is checked before any worker starts: a bad value (--port at
most 65535, --shards at least 1, the rest at least 0) or an unknown flag
exits 2.
)";

// The warp_serve build expected to sit next to this launcher binary;
// falls back to PATH resolution when argv0 carries no directory.
inline std::string SiblingWorkerBinary(const char* argv0) {
  const std::string path = argv0 == nullptr ? "" : argv0;
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "warp_serve";
  return path.substr(0, slash + 1) + "warp_serve";
}

// Reads the launcher flags, then builds and runs a supervisor + router.
// Returns a process exit code.
inline int ClusterToolMain(Flags& flags,
                           const std::string& default_worker_binary) {
  cluster::SupervisorOptions sup;
  cluster::RouterOptions router_options;
  sup.shards = flags.GetCount("shards", sup.shards, 1);
  sup.snapshot_dir = flags.GetString("snapshot-dir", "");
  router_options.port = static_cast<int>(flags.GetInt("port", 0, 0, 65535));
  sup.threads = flags.GetCount("threads", sup.threads);
  sup.cache_capacity = flags.GetCount("cache", sup.cache_capacity);
  sup.max_queue_depth = flags.GetCount("max-queue-depth", sup.max_queue_depth);
  sup.worker_binary = flags.GetString("worker-bin", default_worker_binary);
  sup.restart_backoff_ms = static_cast<int>(
      flags.GetCount("restart-backoff-ms", sup.restart_backoff_ms));
  sup.restart_backoff_max_ms = static_cast<int>(
      flags.GetCount("restart-backoff-max-ms", sup.restart_backoff_max_ms));
  sup.ping_interval_ms = static_cast<int>(
      flags.GetCount("ping-interval-ms", sup.ping_interval_ms));
  flags.Finalize();

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
  // SIGTERM and SIGINT end the accept loop as a client's `shutdown` does
  // (RequestShutdown is one atomic store), so the workers are stopped
  // below either way. The handler cannot capture, hence the static; it
  // may run on any thread, hence the atomic.
  static std::atomic<cluster::Router*> signalled_router{nullptr};
  signalled_router.store(&router);
  cluster::HandleTerminationSignals(
      [](int) { signalled_router.load()->RequestShutdown(); });
  const int status = cluster::RunRouter(&router);
  supervisor.Stop();
  cluster::HandleTerminationSignals(nullptr);
  return status;
}

}  // namespace tools
}  // namespace warp

#endif  // WARP_TOOLS_CLUSTER_MAIN_H_
