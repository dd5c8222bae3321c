// The loopback TCP query server (docs/SERVING.md).
//
// Composition of the serve subsystem: a DatasetStore (shared, read-only
// snapshots), a ResultCache, a QueryEngine on a ThreadPool, and a Batcher
// that group-commits concurrent connections into shared engine batches,
// behind the shared FrontEnd (warp/serve/front_end.h: one thread per
// connection, pipelined lines answered as one batch, strict in-order
// control ops). Control ops (ping / info / stats / metrics / telemetry /
// slowlog / load / shutdown) are answered inline without entering the
// engine; the telemetry documents come from warp/serve/telemetry.h.

#ifndef WARP_SERVE_SERVER_H_
#define WARP_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "warp/serve/dataset_store.h"
#include "warp/ts/dataset.h"

namespace warp {
namespace serve {

struct ServerOptions {
  uint16_t port = 0;           // 0 = kernel-assigned; see Server::port().
  size_t threads = 1;          // Query-engine worker threads.
  size_t shards = 1;           // Store shards per dataset (>= 1).
  size_t cache_capacity = 256; // Result-cache entries; 0 disables caching.
  size_t slowlog_capacity = 32; // Slow-query log entries; 0 disables it.

  // Batcher admission gate: pending submissions beyond this fast-fail
  // with error:"overloaded" (serve/batcher.h). 0 = unbounded.
  size_t max_queue_depth = 1024;

  // Cluster worker mode: >= 0 makes this server shard worker K of
  // `shards`. The store still holds the full sharded layout (identical
  // partition, identical epochs), but every query must arrive stamped
  // with "shard":K — anything else is refused as mis-routed — and scans
  // only cover shard K's candidates (docs/SERVING.md, "Multi-process
  // cluster").
  long worker_shard = -1;

  // Sakoe-Chiba fractions (each from 0 to 1) indexed at dataset
  // registration: each becomes a per-series envelope set at
  // band = BandFromFraction(fraction, length) (core/dtw.h).
  std::vector<double> band_fractions = {0.05, 0.1};
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Z-normalizes, indexes (options.band_fractions), and registers
  // `dataset` under `name`. Callable before Start() (preloading) or
  // while serving (the store swaps snapshots atomically).
  void RegisterDataset(const std::string& name, Dataset dataset);

  // Loads a UCR file and registers it, indexed at `band_fractions` (each
  // from 0 to 1; empty = options.band_fractions). Returns false and fills
  // *error on I/O or parse failure (the dataset list is unchanged).
  bool LoadDataset(const std::string& name, const std::string& path,
                   const std::vector<double>& band_fractions,
                   std::string* error);

  // Registers a dataset from a warp-snap-v1 file (bit-exact index, no
  // recomputation; the store re-shards it at its configured shard
  // count). `name` overrides the name stored in the file when non-empty.
  // Refuses — false + *error, store unchanged — on any mismatch.
  bool LoadSnapshotFile(const std::string& name, const std::string& path,
                        std::string* error);

  // Auto-load: registers every *.wsnap file directly inside `dir`, in
  // sorted filename order, each under its stored dataset name. Stops at
  // the first failure.
  bool LoadSnapshotDir(const std::string& dir, std::string* error);

  // Binds the listener. Returns false and fills *error on failure.
  bool Start(std::string* error);

  // The bound port (valid after Start(); useful with options.port == 0).
  int port() const;

  // Accepts and serves connections until RequestShutdown() (from a
  // connection's `shutdown` op or another thread). Joins every
  // connection thread before returning.
  void Serve();

  // Signals Serve() to stop; safe from any thread, idempotent.
  void RequestShutdown();

  const DatasetStore& store() const;

 private:
  friend int RunServer(Server* server);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience for tools: Start() + Serve(), printing
// "warp_serve listening on 127.0.0.1:<port>" and then "ready port=<port>"
// to stdout first so harnesses (and the cluster supervisor) can scrape
// the bound port even when options.port was 0. Returns a process exit
// code.
int RunServer(Server* server);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_SERVER_H_
