// Cluster-side view of one shard worker (docs/SERVING.md,
// "Multi-process cluster").
//
// A worker is a plain `warp_serve` process started with
// `--worker --shard-id=K --shards=N`: it loads the full snapshot
// set (so every process agrees on the pinned partition and epoch
// sequence), but answers only sub-scans stamped "shard":K, scanning
// exactly shard K's candidates. This header holds what the rest of the
// cluster needs to know about such a process: how to build its command
// line, how to scrape its readiness line, and how to talk to it over the
// wire (WorkerClient).

#ifndef WARP_CLUSTER_WORKER_H_
#define WARP_CLUSTER_WORKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "warp/serve/net.h"

namespace warp {
namespace cluster {

// Everything a spawned worker needs; mirrors warp_serve's flags.
struct WorkerSpec {
  size_t shard_id = 0;
  size_t shard_count = 1;
  size_t threads = 1;
  size_t cache_capacity = 256;
  size_t max_queue_depth = 1024;
  std::string snapshot_dir;  // Re-fed on every (re)start: the handoff medium.
};

// The argv for spawning `worker_binary` (a warp_serve build) as the
// worker described by `spec`. Always binds --port=0; the bound port is
// scraped from the child's "ready port=<P>" line.
std::vector<std::string> WorkerCommand(const std::string& worker_binary,
                                       const WorkerSpec& spec);

// Parses a "ready port=<P>" stdout line, P a whole integer from 1 to
// 65535. Returns false when `line` is not such a line.
bool ParseReadyPort(const std::string& line, int* port);

// A single-connection wire client for one worker process. Not
// thread-safe: one thread uses a client at a time (the router leases each
// of its link sets to one batch or control op). A failed round trip drops
// the connection; the caller decides whether to reconnect (same
// generation) or give the worker up for dead (supervisor restart).
class WorkerClient {
 public:
  // (Re)connects to 127.0.0.1:`port`. Any previous connection is closed.
  bool Connect(int port, int timeout_ms, std::string* error);

  bool connected() const { return conn_.valid(); }
  void Disconnect() { conn_.Close(); }

  // Writes `payload` (one or more complete '\n'-terminated request
  // lines). Returns false on IO failure (connection dropped).
  bool Send(const std::string& payload);

  // Reads exactly `expect` response lines into *responses, waiting at
  // most `timeout_ms` (> 0; otherwise no limit) for each whole line, so a
  // worker that stalls mid-line costs no more than one that never starts.
  // Returns false on EOF, error, or timeout (connection is dropped so the
  // next use starts clean — a half-read pipeline must never be resumed).
  bool ReadLines(size_t expect, int timeout_ms,
                 std::vector<std::string>* responses);

 private:
  serve::TcpConn conn_;
};

}  // namespace cluster
}  // namespace warp

#endif  // WARP_CLUSTER_WORKER_H_
