// Request-lifetime distributions and point-in-time gauges for the
// serving path.
//
// The counter registry (warp/common/metrics.h) answers "how much work
// happened in total"; it cannot answer "what does p99 look like" or
// "where does one request's time go". This registry adds the missing
// shapes:
//
//   * Histogram — a fixed 65-bucket log2 histogram (bucket 0 holds the
//     value zero; bucket i holds values whose bit width is i, i.e. the
//     range [2^(i-1), 2^i - 1]). Recording touches only the calling
//     thread's cache-line-aligned slab with relaxed load+store, exactly
//     the counter-slab discipline, so recording is contention-free and
//     SnapshotHistograms() merges by unsigned addition — merged counts,
//     sums, and buckets are bitwise-stable at any thread count.
//   * Gauge — a signed instantaneous level (queue depth, open
//     connections, inflight batch size). Deltas are commutative
//     fetch_adds on one global atomic, so the settled value is
//     deterministic even though intermediate readings race by nature.
//
// Recording never changes serving results: they are bitwise identical
// at any thread count (tests/serve/stats_golden_test.cc).
//
// Percentiles are computed from the buckets at snapshot time: pNN is the
// upper bound of the bucket containing the NN-th percentile rank. That
// makes them quantized (a power-of-two ceiling), but deterministic and
// mergeable — good enough to see a p99 collapse by 10x, which is what
// the serving roadmap items need.

#ifndef WARP_OBS_HISTOGRAM_H_
#define WARP_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace warp {
namespace obs {

// One X(enumerator, json_name) entry per histogram. The json_name is the
// stable identifier used by the stats op, the metrics exposition, and
// warp-bench-v1 reports; keep docs/OBSERVABILITY.md in sync. The _us
// suffix marks microsecond-valued series; unsuffixed series count items.
#define WARP_OBS_HISTOGRAM_LIST(X)                                \
  /* End-to-end engine latency per query op (query_engine.cc). */ \
  X(kServeLatency1nn, "serve_latency_1nn_us")                     \
  X(kServeLatencyKnn, "serve_latency_knn_us")                     \
  X(kServeLatencyRange, "serve_latency_range_us")                 \
  X(kServeLatencyDist, "serve_latency_dist_us")                   \
  X(kServeLatencySubsequence, "serve_latency_subsequence_us")     \
  /* Work per computed (non-cache-hit) query. */                  \
  X(kServeCellsPerQuery, "serve_cells_per_query")                 \
  /* Batching shape (batcher.cc). */                              \
  X(kServeBatchOccupancy, "serve_batch_occupancy")                \
  /* Request lifecycle stages (server/batcher/query_engine). */   \
  X(kServeStageParse, "serve_stage_parse_us")                     \
  X(kServeStageCacheLookup, "serve_stage_cache_lookup_us")        \
  X(kServeStageQueueWait, "serve_stage_queue_wait_us")            \
  X(kServeStageEngineScan, "serve_stage_engine_scan_us")          \
  X(kServeStageMerge, "serve_stage_merge_us")                     \
  X(kServeStageSerialize, "serve_stage_serialize_us")             \
  /* Snapshot persistence (serve/snapshot.cc). */                 \
  X(kServeSnapshotSaveUs, "serve_snapshot_save_us")               \
  X(kServeSnapshotLoadUs, "serve_snapshot_load_us")               \
  /* Router scatter/gather round trip (cluster/router.cc). */     \
  X(kRouterGatherUs, "router_gather_us")

// One X(enumerator, json_name) entry per gauge.
#define WARP_OBS_GAUGE_LIST(X)                  \
  X(kServeQueueDepth, "serve_queue_depth")      \
  X(kServeOpenConnections, "serve_open_connections") \
  X(kServeInflightBatch, "serve_inflight_batch")

enum class Histogram : uint32_t {
#define WARP_OBS_DECLARE_ENUM(name, json_name) name,
  WARP_OBS_HISTOGRAM_LIST(WARP_OBS_DECLARE_ENUM)
#undef WARP_OBS_DECLARE_ENUM
      kNumHistograms
};

enum class Gauge : uint32_t {
#define WARP_OBS_DECLARE_ENUM(name, json_name) name,
  WARP_OBS_GAUGE_LIST(WARP_OBS_DECLARE_ENUM)
#undef WARP_OBS_DECLARE_ENUM
      kNumGauges
};

inline constexpr size_t kNumHistograms =
    static_cast<size_t>(Histogram::kNumHistograms);
inline constexpr size_t kNumGauges = static_cast<size_t>(Gauge::kNumGauges);

// Bucket 0 holds exact zeros; bucket i (1..64) holds values with bit
// width i. 65 buckets cover the whole uint64_t range.
inline constexpr size_t kHistogramBuckets = 65;

// The stable JSON/report name of a histogram or gauge.
const char* HistogramName(Histogram histogram);
const char* GaugeName(Gauge gauge);

// Bucket index of a value: 0 for 0, otherwise the value's bit width.
inline size_t HistogramBucketIndex(uint64_t value) {
  size_t bits = 0;
  while (value != 0) {
    ++bits;
    value >>= 1;
  }
  return bits;
}

// Inclusive upper bound of a bucket: 0, 1, 3, 7, ..., 2^i - 1.
inline uint64_t HistogramBucketBound(size_t bucket) {
  if (bucket >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

// One thread's histogram storage. Same single-writer discipline as
// CounterSlab: atomics only formalize the cross-thread snapshot reads.
struct alignas(64) HistogramSlab {
  struct Series {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Series, kNumHistograms> series{};
};

namespace internal {
// Registers (once) and returns the calling thread's histogram slab.
// Never unregistered, same rationale as the counter slabs.
HistogramSlab* RegisterLocalHistogramSlab();
// constinit for the same reason as metrics.h's local_slab: no TLS init
// check at a record site.
extern constinit thread_local HistogramSlab* local_histogram_slab;

// The global gauge cells (one atomic per gauge, zero-initialized).
std::atomic<int64_t>& GaugeCell(Gauge gauge);

inline void BumpSeries(HistogramSlab::Series& series, uint64_t value) {
  auto bump = [](std::atomic<uint64_t>& cell, uint64_t amount) {
    cell.store(cell.load(std::memory_order_relaxed) + amount,
               std::memory_order_relaxed);
  };
  bump(series.count, 1);
  bump(series.sum, value);
  bump(series.buckets[HistogramBucketIndex(value)], 1);
}
}  // namespace internal

inline void RecordValue(Histogram histogram, uint64_t value) {
  HistogramSlab* slab = internal::local_histogram_slab;
  if (slab == nullptr) slab = internal::RegisterLocalHistogramSlab();
  internal::BumpSeries(slab->series[static_cast<size_t>(histogram)], value);
}
inline void GaugeAdd(Gauge gauge, int64_t delta) {
  internal::GaugeCell(gauge).fetch_add(delta, std::memory_order_relaxed);
}
inline int64_t GaugeValue(Gauge gauge) {
  return internal::GaugeCell(gauge).load(std::memory_order_relaxed);
}

// Microsecond convenience for stage timings: negative and NaN inputs
// clamp to zero, fractional microseconds round down.
inline void RecordMicros(Histogram histogram, double micros) {
  const uint64_t value =
      micros > 0.0 ? static_cast<uint64_t>(micros) : uint64_t{0};
  RecordValue(histogram, value);
}

// A merged, immutable view of one histogram at one instant.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  bool Empty() const { return count == 0; }
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Upper bound of the bucket holding the q-quantile rank (q in [0,1]).
  // Zero when empty.
  uint64_t Percentile(double q) const;
};

struct HistogramSnapshot {
  std::array<HistogramData, kNumHistograms> series{};

  const HistogramData& Get(Histogram histogram) const {
    return series[static_cast<size_t>(histogram)];
  }
};

// Per-field difference a - b, saturating at zero (all fields are
// monotonic, so a genuine "since" delta never saturates).
HistogramSnapshot operator-(const HistogramSnapshot& a,
                            const HistogramSnapshot& b);

// Merged totals across every thread that ever recorded. Deterministic:
// unsigned addition in any order yields the same counts/sums/buckets.
HistogramSnapshot SnapshotHistograms();

// Convenience: SnapshotHistograms() - before.
HistogramSnapshot HistogramsSince(const HistogramSnapshot& before);

// Zeroes every slab. Only meaningful while no serving work is in flight
// (e.g. between bench cases on the orchestrating thread).
void ResetHistograms();

// A point-in-time reading of all gauges. Readings taken while work is in
// flight may see transient levels; settled values (queue drained, batch
// finished) are deterministic because deltas are paired and commutative.
struct GaugeSnapshot {
  std::array<int64_t, kNumGauges> values{};

  int64_t Get(Gauge gauge) const {
    return values[static_cast<size_t>(gauge)];
  }
};

GaugeSnapshot SnapshotGauges();

}  // namespace obs
}  // namespace warp

// Instrumentation entry points, mirroring WARP_COUNT.
#define WARP_HISTOGRAM_RECORD(histogram, value) \
  ::warp::obs::RecordValue((histogram), static_cast<uint64_t>(value))
#define WARP_HISTOGRAM_RECORD_US(histogram, micros) \
  ::warp::obs::RecordMicros((histogram), (micros))
#define WARP_GAUGE_ADD(gauge, delta) \
  ::warp::obs::GaugeAdd((gauge), static_cast<int64_t>(delta))

#endif  // WARP_OBS_HISTOGRAM_H_
