#include "warp/cluster/supervisor.h"

#include <algorithm>
#include <csignal>
#include <utility>

#include "warp/common/metrics.h"

namespace warp {
namespace cluster {
namespace {

// How long a worker must stay up before its next failure is treated as
// fresh (backoff resets) rather than part of a crash loop.
constexpr double kHealthyUptimeMs = 2000.0;

// Grace period between SIGTERM and SIGKILL during Stop().
constexpr int kTermGraceMs = 2000;

// Max wait for a worker's ready line, and the monitor loop's cadence.
constexpr int kReadyTimeoutMs = 30000;
constexpr int kPollIntervalMs = 20;

}  // namespace

Supervisor::Supervisor(const SupervisorOptions& options) : options_(options) {
  slots_.resize(options_.shards);
  for (size_t shard = 0; shard < options_.shards; ++shard) {
    slots_[shard].status.shard_id = shard;
  }
}

Supervisor::~Supervisor() { Stop(); }

bool Supervisor::SpawnAndAwaitReady(size_t shard, ChildProcess* proc,
                                    int* port, long* pid,
                                    std::string* error) {
  WorkerSpec spec;
  spec.shard_id = shard;
  spec.shard_count = options_.shards;
  spec.threads = options_.threads;
  spec.cache_capacity = options_.cache_capacity;
  spec.max_queue_depth = options_.max_queue_depth;
  spec.snapshot_dir = options_.snapshot_dir;
  if (!proc->Spawn(WorkerCommand(options_.worker_binary, spec), error)) {
    return false;
  }
  std::string line;
  if (!proc->WaitForLinePrefix("ready port=", kReadyTimeoutMs, &line) ||
      !ParseReadyPort(line, port)) {
    proc->Kill(SIGKILL);
    proc->Reap();
    *error = "worker for shard " + std::to_string(shard) +
             " did not report readiness within " +
             std::to_string(kReadyTimeoutMs) + "ms";
    return false;
  }
  *pid = proc->pid();
  return true;
}

bool Supervisor::Start(std::string* error) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      *error = "supervisor already started";
      return false;
    }
  }
  // Spawn and await each worker outside the lock: nothing else touches
  // the slots until started_ flips and the monitor thread exists.
  for (size_t shard = 0; shard < options_.shards; ++shard) {
    Slot& slot = slots_[shard];
    if (!SpawnAndAwaitReady(shard, &slot.proc, &slot.status.port,
                            &slot.status.pid, error)) {
      for (size_t prev = 0; prev < shard; ++prev) {
        slots_[prev].proc.Kill(SIGKILL);
        slots_[prev].proc.Reap();
        slots_[prev].status.up = false;
      }
      return false;
    }
    slot.status.up = true;
    slot.status.generation = 1;
    slot.up_since_ms = clock_.ElapsedMillis();
    slot.last_ping_ms = slot.up_since_ms;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
  return true;
}

bool Supervisor::PingWorker(int port) const {
  WorkerClient client;
  std::string error;
  if (!client.Connect(port, options_.ping_timeout_ms, &error)) return false;
  std::vector<std::string> replies;
  if (!client.Send("{\"id\":0,\"op\":\"ping\"}\n")) return false;
  return client.ReadLines(1, options_.ping_timeout_ms, &replies);
}

void Supervisor::MonitorLoop() {
  while (true) {
    // Phase 1 (locked): reap deaths, schedule restarts, pick work.
    long restart_shard = -1;
    long ping_shard = -1;
    int ping_port = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      const double now_ms = clock_.ElapsedMillis();
      for (Slot& slot : slots_) {
        if (slot.status.up) {
          if (slot.proc.TryReap(nullptr)) {
            // Stayed up long enough -> fresh failure; otherwise keep
            // doubling so a crash loop backs off instead of spinning.
            const bool healthy =
                now_ms - slot.up_since_ms >= kHealthyUptimeMs;
            slot.backoff_ms = healthy ? options_.restart_backoff_ms
                                      : std::min(slot.backoff_ms * 2,
                                                 options_.restart_backoff_max_ms);
            if (slot.backoff_ms < options_.restart_backoff_ms) {
              slot.backoff_ms = options_.restart_backoff_ms;
            }
            slot.status.up = false;
            slot.status.pid = -1;
            slot.restart_due_ms = now_ms + slot.backoff_ms;
          } else if (ping_shard < 0 && options_.ping_interval_ms > 0 &&
                     now_ms - slot.last_ping_ms >=
                         options_.ping_interval_ms) {
            ping_shard = static_cast<long>(slot.status.shard_id);
            ping_port = slot.status.port;
          }
        } else if (restart_shard < 0 && restarts_enabled_ &&
                   now_ms >= slot.restart_due_ms) {
          restart_shard = static_cast<long>(slot.status.shard_id);
        }
      }
    }

    // Phase 2 (unlocked): at most one slow action per tick, so status
    // queries from the router never wait on a spawn or a ping.
    if (restart_shard >= 0) {
      Slot& slot = slots_[static_cast<size_t>(restart_shard)];
      ChildProcess proc;
      int port = 0;
      long pid = -1;
      std::string error;
      const bool ok = SpawnAndAwaitReady(static_cast<size_t>(restart_shard),
                                         &proc, &port, &pid, &error);
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || !restarts_enabled_) {
        if (ok) {
          proc.Kill(SIGKILL);
          proc.Reap();
        }
        if (stopping_) return;
        continue;
      }
      const double now_ms = clock_.ElapsedMillis();
      if (ok) {
        slot.proc = std::move(proc);
        slot.status.up = true;
        slot.status.port = port;
        slot.status.pid = pid;
        slot.status.generation++;
        slot.status.restarts++;
        slot.up_since_ms = now_ms;
        slot.last_ping_ms = now_ms;
        WARP_COUNT(obs::Counter::kClusterWorkerRestarts);
      } else {
        slot.backoff_ms =
            std::min(std::max(slot.backoff_ms * 2, options_.restart_backoff_ms),
                     options_.restart_backoff_max_ms);
        slot.restart_due_ms = now_ms + slot.backoff_ms;
      }
      continue;  // Re-examine immediately; another shard may need work.
    }

    if (ping_shard >= 0) {
      const bool alive = PingWorker(ping_port);
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      Slot& slot = slots_[static_cast<size_t>(ping_shard)];
      const double now_ms = clock_.ElapsedMillis();
      // Only act if the worker we pinged is still the one in the slot.
      if (slot.status.up && slot.status.port == ping_port) {
        slot.last_ping_ms = now_ms;
        if (!alive) {
          // Unresponsive but not exited: put it down ourselves.
          slot.proc.Kill(SIGKILL);
          slot.proc.Reap();
          slot.backoff_ms = options_.restart_backoff_ms;
          slot.status.up = false;
          slot.status.pid = -1;
          slot.restart_due_ms = now_ms + slot.backoff_ms;
        }
      }
      continue;
    }

    SleepMillis(kPollIntervalMs);
  }
}

void Supervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    restarts_enabled_ = false;
    if (!started_) return;
    stopping_ = true;
  }
  if (monitor_.joinable()) monitor_.join();

  // Monitor is gone; slots are ours alone now.
  for (Slot& slot : slots_) {
    if (!slot.proc.running()) continue;
    slot.proc.Kill(SIGTERM);
  }
  const Stopwatch grace;
  bool all_dead = false;
  while (!all_dead && grace.ElapsedMillis() < kTermGraceMs) {
    all_dead = true;
    for (Slot& slot : slots_) {
      if (slot.proc.running() && !slot.proc.TryReap(nullptr)) {
        all_dead = false;
      }
    }
    if (!all_dead) SleepMillis(10);
  }
  for (Slot& slot : slots_) {
    if (slot.proc.running()) {
      slot.proc.Kill(SIGKILL);
      slot.proc.Reap();
    }
    slot.status.up = false;
    slot.status.pid = -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void Supervisor::DisableRestarts() {
  std::lock_guard<std::mutex> lock(mu_);
  restarts_enabled_ = false;
}

WorkerStatus Supervisor::Status(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_[shard].status;
}

std::vector<WorkerStatus> Supervisor::StatusAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WorkerStatus> all;
  all.reserve(slots_.size());
  for (const Slot& slot : slots_) all.push_back(slot.status);
  return all;
}

long Supervisor::worker_pid(size_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  const WorkerStatus& status = slots_[shard].status;
  return status.up ? status.pid : -1;
}

}  // namespace cluster
}  // namespace warp
