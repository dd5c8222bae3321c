// Worker lifecycle management for the multi-process cluster
// (docs/SERVING.md, "Multi-process cluster").
//
// The supervisor owns the N shard-worker processes: it spawns them,
// scrapes each one's "ready port=<P>" line to learn its ephemeral port,
// detects death (reaping plus optional liveness pings so a wedged-but-
// alive worker is also caught), and restarts dead workers with bounded
// exponential backoff, re-feeding them from the snapshot directory.
// While a worker is down its shard is simply reported as unavailable —
// the router degrades to partial answers instead of hanging.

#ifndef WARP_CLUSTER_SUPERVISOR_H_
#define WARP_CLUSTER_SUPERVISOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "warp/cluster/proc.h"
#include "warp/cluster/worker.h"
#include "warp/common/stopwatch.h"

namespace warp {
namespace cluster {

struct SupervisorOptions {
  size_t shards = 1;
  std::string worker_binary;  // Path to a warp_serve build.
  std::string snapshot_dir;   // Re-fed to every (re)started worker.
  size_t threads = 1;         // Scan threads per worker.
  size_t cache_capacity = 256;
  size_t max_queue_depth = 1024;
  int restart_backoff_ms = 200;     // First-retry delay; doubles per failure.
  int restart_backoff_max_ms = 5000;
  int ping_interval_ms = 1000;      // Liveness ping cadence; <= 0 disables.
  int ping_timeout_ms = 1500;       // Connect + reply budget per ping.
};

// Router-visible view of one worker slot.
struct WorkerStatus {
  size_t shard_id = 0;
  bool up = false;
  int port = 0;
  uint64_t generation = 0;  // Bumps on every successful (re)start.
  long pid = -1;
  uint64_t restarts = 0;    // Successful restarts (not counting Start()).
};

class Supervisor {
 public:
  explicit Supervisor(const SupervisorOptions& options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Spawns all workers, waits for every ready line, then starts the
  // monitor thread. Returns false and fills *error when any worker fails
  // to come up (already-started workers are torn down).
  bool Start(std::string* error);

  // Disables restarts, terminates running workers (SIGTERM, escalating
  // to SIGKILL), reaps them, and joins the monitor thread. Idempotent.
  void Stop();

  // Stops restarting dead workers without killing live ones. The router
  // calls this on a client `shutdown` before forwarding it to the
  // workers, so their clean exits are not "failures" to resurrect.
  void DisableRestarts();

  size_t shards() const { return options_.shards; }
  WorkerStatus Status(size_t shard) const;
  std::vector<WorkerStatus> StatusAll() const;

  // The live pid of shard `shard`'s worker, or -1 while it is down.
  // Tests and smoke scripts use this for fault injection (SIGKILL).
  long worker_pid(size_t shard) const;

 private:
  struct Slot {
    ChildProcess proc;
    WorkerStatus status;
    int backoff_ms = 0;          // Next restart delay; 0 = base.
    double restart_due_ms = 0;   // On clock_; only meaningful when down.
    double up_since_ms = 0;      // On clock_; for backoff reset.
    double last_ping_ms = 0;     // On clock_.
  };

  void MonitorLoop();
  // Spawns shard `shard` and waits for its ready line. Fills *slot's
  // proc/status on success. Runs WITHOUT holding mu_ (the ready wait can
  // take seconds); only the caller touches a down slot's process.
  bool SpawnAndAwaitReady(size_t shard, ChildProcess* proc, int* port,
                          long* pid, std::string* error);
  bool PingWorker(int port) const;

  const SupervisorOptions options_;
  const Stopwatch clock_;  // Common timeline for backoff deadlines.

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  bool restarts_enabled_ = true;
  bool stopping_ = false;
  bool started_ = false;

  std::thread monitor_;
};

}  // namespace cluster
}  // namespace warp

#endif  // WARP_CLUSTER_SUPERVISOR_H_
