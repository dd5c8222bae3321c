// Work counters for every kernel in the library.
//
// The paper's argument is about the work an algorithm actually performs
// (cells computed, recursion overhead, pruning power), not just its
// wall-clock time. This registry makes that work observable: each kernel
// publishes named monotonic counters (DP cells, early abandons, lower-bound
// invocations and kills, FastDTW cells per recursion, envelope builds,
// thread-pool activity) that the bench harnesses snapshot around every
// measurement and emit in their JSON reports.
//
// Design contract:
//   * Increments go to a cache-line-aligned per-thread slab (one relaxed
//     load + store, no contention, no false sharing) registered in a
//     global list on first use — the same per-worker-slot philosophy as
//     PerThread<T> in warp/common/parallel.h.
//   * SnapshotCounters() merges the slabs by unsigned 64-bit addition,
//     which is order-independent, so merged totals are bitwise-stable at
//     any thread count and across runs.
//   * Counters are always compiled in. Kernels bump them once per call or
//     per row, never per DP cell, so the cost stays far below bench noise.
//
// Counting never changes algorithm results: outputs are bitwise identical
// at 1/2/8 threads (tests/obs/metrics_test.cc).
//
// Layering note: this file lives in warp/common/ (not warp/obs/) because
// the counter slab is layer-0 infrastructure — the thread pool in
// warp/common/parallel.cc bumps pool counters, and common sits below obs
// in the module DAG (docs/STATIC_ANALYSIS.md). The namespace stays
// warp::obs: counters are observability data, and the obs subsystem
// (report/trace/json) builds its snapshots on top of this registry.

#ifndef WARP_COMMON_METRICS_H_
#define WARP_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace warp {
namespace obs {

// One X(enumerator, json_name) entry per counter. The json_name is the
// stable identifier used in --json output and docs/OBSERVABILITY.md;
// keep both in sync when adding counters.
#define WARP_OBS_COUNTER_LIST(X)                          \
  /* Banded/windowed DP engine (dp_engine.h / dtw.cc). */ \
  X(kDtwCells, "dtw_cells")                               \
  X(kWorkspaceAllocs, "workspace_allocs")                 \
  X(kDtwEarlyAbandons, "dtw_early_abandons")              \
  X(kPathEngineCells, "path_engine_cells")                \
  X(kPathEngineBytes, "path_engine_bytes")                \
  /* FastDTW, optimized port (fastdtw.cc). */             \
  X(kFastDtwCells, "fastdtw_cells")                       \
  X(kFastDtwLevels, "fastdtw_levels")                     \
  X(kFastDtwBaseCases, "fastdtw_base_cases")              \
  /* FastDTW, reference port (fastdtw_reference.cc). */   \
  X(kFastDtwRefCells, "fastdtw_ref_cells")                \
  X(kFastDtwRefLevels, "fastdtw_ref_levels")              \
  X(kFastDtwRefBaseCases, "fastdtw_ref_base_cases")       \
  /* Envelopes and lower bounds. */                       \
  X(kEnvelopeBuilds, "envelope_builds")                   \
  X(kEnvelopePoints, "envelope_points")                   \
  X(kLbKimCalls, "lb_kim_calls")                          \
  X(kLbKimKills, "lb_kim_kills")                          \
  X(kLbKeoghCalls, "lb_keogh_calls")                      \
  X(kLbKeoghKills, "lb_keogh_kills")                      \
  X(kLbImprovedCalls, "lb_improved_calls")                \
  /* The pruning cascade (core/cascade.h). */             \
  X(kCascadeCandidates, "cascade_candidates")             \
  X(kCascadeEarlyAbandons, "cascade_early_abandons")      \
  X(kCascadeFullDtw, "cascade_full_dtw")                  \
  /* Thread pool (parallel.cc). */                        \
  X(kPoolTasks, "pool_tasks")                             \
  X(kPoolChunks, "pool_chunks")                           \
  X(kPoolParallelFors, "pool_parallel_fors")              \
  X(kPoolQueueWaitNanos, "pool_queue_wait_nanos")         \
  /* Query-serving subsystem (serve/). */                 \
  X(kServeRequests, "serve_requests")                     \
  X(kServeBatches, "serve_batches")                       \
  X(kServeBatchedQueries, "serve_batched_queries")        \
  X(kServeCacheHits, "serve_cache_hits")                  \
  X(kServeCacheMisses, "serve_cache_misses")              \
  X(kServeCacheEvictions, "serve_cache_evictions")        \
  X(kServeDeadlineExceeded, "serve_deadline_exceeded")     \
  X(kServeShardScans, "serve_shard_scans")                 \
  X(kServeSnapshotSaves, "serve_snapshot_saves")           \
  X(kServeSnapshotLoads, "serve_snapshot_loads")           \
  X(kServeShed, "serve_shed")                               \
  /* Multi-process cluster (cluster/). */                   \
  X(kClusterScatters, "cluster_scatters")                   \
  X(kClusterWorkerRestarts, "cluster_worker_restarts")      \
  X(kClusterPartialReplies, "cluster_partial_replies")      \
  /* SIMD kernels (warp/simd/). */                         \
  X(kSimdBlocks, "simd_blocks")                            \
  X(kSimdScalarTail, "simd_scalar_tail")

enum class Counter : uint32_t {
#define WARP_OBS_DECLARE_ENUM(name, json_name) name,
  WARP_OBS_COUNTER_LIST(WARP_OBS_DECLARE_ENUM)
#undef WARP_OBS_DECLARE_ENUM
      kNumCounters
};

inline constexpr size_t kNumCounters =
    static_cast<size_t>(Counter::kNumCounters);

// The stable JSON/report name of a counter.
const char* CounterName(Counter counter);

// One thread's counter storage. Atomics are only a formality for the
// cross-thread snapshot reads: each slab has exactly one writer (its
// thread), so increments use relaxed load+store, which compiles to a
// plain add on mainstream targets.
struct alignas(64) CounterSlab {
  std::array<std::atomic<uint64_t>, kNumCounters> values{};
};

namespace internal {
// Registers (once) and returns the calling thread's slab. Slabs are never
// unregistered: a finished thread's totals remain visible to snapshots.
CounterSlab* RegisterLocalSlab();
// constinit: the pointer is constant-initialised, so a count site reads it
// without first checking for (and calling) a TLS init function.
extern constinit thread_local CounterSlab* local_slab;
}  // namespace internal

inline void AddCount(Counter counter, uint64_t amount) {
  CounterSlab* slab = internal::local_slab;
  if (slab == nullptr) slab = internal::RegisterLocalSlab();
  std::atomic<uint64_t>& cell = slab->values[static_cast<size_t>(counter)];
  cell.store(cell.load(std::memory_order_relaxed) + amount,
             std::memory_order_relaxed);
}
// The calling thread's own running total for `counter` (0 if this thread
// never counted). One relaxed load — cheap enough to difference around a
// work chunk and attribute the delta to a request (the serving engine's
// cells-per-query histogram does exactly that).
inline uint64_t LocalCount(Counter counter) {
  const CounterSlab* slab = internal::local_slab;
  return slab == nullptr
             ? uint64_t{0}
             : slab->values[static_cast<size_t>(counter)].load(
                   std::memory_order_relaxed);
}

// A merged, immutable view of all counters at one instant.
struct MetricsSnapshot {
  std::array<uint64_t, kNumCounters> values{};

  uint64_t Get(Counter counter) const {
    return values[static_cast<size_t>(counter)];
  }
  uint64_t operator[](Counter counter) const { return Get(counter); }
};

// Per-counter difference a - b, saturating at zero (counters are
// monotonic, so a genuine "since" delta never saturates).
MetricsSnapshot operator-(const MetricsSnapshot& a, const MetricsSnapshot& b);

// Merged totals across every thread that ever counted. Deterministic:
// unsigned addition in any order yields the same totals.
MetricsSnapshot SnapshotCounters();

// Convenience: SnapshotCounters() - before.
MetricsSnapshot CountersSince(const MetricsSnapshot& before);

// Zeroes every slab. Only meaningful while no kernel work is in flight
// (e.g. between bench cases on the orchestrating thread).
void ResetCounters();

}  // namespace obs
}  // namespace warp

// Instrumentation entry points.
#define WARP_COUNT_ADD(counter, amount) \
  ::warp::obs::AddCount((counter), static_cast<uint64_t>(amount))
#define WARP_COUNT(counter) WARP_COUNT_ADD(counter, 1)

#endif  // WARP_COMMON_METRICS_H_
