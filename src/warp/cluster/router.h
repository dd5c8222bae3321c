// The cluster front end: one process speaking the ordinary serve wire
// protocol to clients, scattering every query to the shard workers and
// gathering their sub-scans into answers that are BITWISE-identical to a
// single-process `--shards=N` server (docs/SERVING.md, "Multi-process
// cluster"). Connection handling is the server's own serve::FrontEnd.
//
// Determinism contract, layer by layer:
//   * every sub-scan is stamped ("shard":K, "shard_epoch":E) via
//     FormatRequest, and a worker refuses mis-routed or stale work, so an
//     answer can only ever be assembled from the pinned partition;
//   * scan replies gather in shard order through serve::MergeNeighbors,
//     the merge the engine runs over its chunks, so the split into shards
//     is invisible;
//   * dist/subsequence go only to the owning shard
//     (ShardRouter::Partition) and the reply is relayed field-for-field;
//   * doubles cross the wire via FormatDouble <-> strtod, bit-for-bit.
//
// Degradation: while a shard's worker is down, or its reply does not
// parse, scan queries still answer from the remaining shards with
// `partial:true` and `shards_missing:[K]`; dist/subsequence targeting the
// dead shard fail fast with an error. Stats, metrics and telemetry merge
// the router's registries with every live worker's `telemetry` snapshot
// and render it with the server's renderers (serve/telemetry.h), so the
// schema is a plain server's even with every worker down; slowlog drains
// every live worker and re-sorts by engine time.

#ifndef WARP_CLUSTER_ROUTER_H_
#define WARP_CLUSTER_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>

namespace warp {
namespace cluster {

class Supervisor;

struct RouterOptions {
  int port = 0;  // 0 = kernel-assigned; port() reports it.
};

// Accepts client connections and serves them against the supervisor's
// workers. Start() binds the listener; Serve() blocks in the accept loop
// until a client sends `shutdown` or RequestShutdown() is called.
class Router {
 public:
  Router(const RouterOptions& options, Supervisor* supervisor);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  bool Start(std::string* error);
  int port() const;
  void Serve();
  void RequestShutdown();

 private:
  friend int RunRouter(Router* router);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Start + the "warp_cluster listening on ..." / "ready port=" stdout
// lines + Serve (serve::FrontEnd::Run). Returns a process exit code.
int RunRouter(Router* router);

}  // namespace cluster
}  // namespace warp

#endif  // WARP_CLUSTER_ROUTER_H_
