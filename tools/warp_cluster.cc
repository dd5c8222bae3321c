// warp_cluster — multi-process sharded serving launcher.
//
//   warp_cluster --shards=3 --snapshot-dir=snapshots --port=7070
//
// Spawns one `warp_serve --worker` process per shard (supervised:
// liveness pings, bounded-backoff restarts re-fed from the snapshot
// directory), then serves the ordinary JSON-lines protocol on the
// router port. Answers are bitwise-identical to a single
// `warp_serve --shards=N` process; while a worker is down, scan queries
// degrade to partial:true + shards_missing. Protocol and topology:
// docs/SERVING.md, "Multi-process cluster". Flags: `warp_cluster --help`
// (tools/cluster_main.h, shared with `warp_cli cluster`).

#include <cstdio>

#include "cluster_main.h"

int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::fputs(warp::tools::kClusterHelp, stdout);
    return 0;
  }
  return warp::tools::ClusterToolMain(
      flags, warp::tools::SiblingWorkerBinary(argv[0]));
}
