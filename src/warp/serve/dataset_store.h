// Name-keyed registry of served datasets, sharded and fully indexed.
//
// The serving argument of the paper (and of Rakthanmanon et al.'s UCR
// suite): when the same reference set answers many queries, every piece
// of per-candidate work that does not depend on the query should be done
// ONCE, at load time. A stored dataset therefore holds z-normalized
// copies of the series plus:
//
//   * per-series LB_Keogh envelopes at each registered band width, so the
//     candidate-side Keogh bound costs zero envelope builds per query;
//   * LB_Kim head/tail caches (first/last point of every series packed in
//     two flat arrays), so the first cascade rung touches 16 bytes per
//     candidate instead of paging in whole series.
//
// Since PR 9 the stored form is SHARDED: the logical dataset is
// hash-partitioned across N immutable ShardedDataset slices by a
// ShardRouter whose assignment is a pure function of (series index,
// epoch, shard count). Two consequences the query engine leans on:
//
//   * any shard count yields the same logical dataset — the slices are a
//     pure re-arrangement of the same z-normalized series, envelopes,
//     and endpoint caches, so sharded answers can be (and are, see
//     tests/serve/shard_golden_test.cc) bitwise-identical to the
//     single-shard scan;
//   * the partition is reproducible from (epoch, shard_count) alone, so
//     a snapshot file (warp/serve/snapshot.h) stores the LOGICAL arrays
//     once and any restart re-shards them without recomputing anything.
//
// The expensive pipeline (z-norm + envelope builds) lives in
// BuildDatasetIndex(); partitioning an already built DatasetIndex is a
// pure shuffle. Snapshot restore enters at RegisterIndex(), skipping the
// rebuild entirely.
//
// Stores hand out std::shared_ptr<const StoredDataset>, so workers read
// the index lock-free while a concurrent re-registration swaps in a new
// epoch; the old snapshot stays valid until its last reader drops it.
// Every (re-)registration bumps a store-wide epoch that is part of the
// result-cache key — answers cached against a replaced dataset can never
// be served again. The cache key deliberately does NOT include the shard
// count: shard layout never changes an answer (docs/SERVING.md).

#ifndef WARP_SERVE_DATASET_STORE_H_
#define WARP_SERVE_DATASET_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "warp/core/envelope.h"
#include "warp/ts/dataset.h"

namespace warp {
namespace serve {

// Pure, stateless shard assignment. Mixing the epoch into the hash means
// every re-registration reshuffles the partition (a free rebalance), yet
// any process that knows (epoch, shard_count) reproduces the exact
// layout — which is what lets a snapshot restore or a future
// multi-process deployment agree on ownership without coordination.
class ShardRouter {
 public:
  ShardRouter() = default;
  ShardRouter(uint64_t epoch, size_t shard_count)
      : epoch_(epoch), shard_count_(shard_count == 0 ? 1 : shard_count) {}

  uint64_t epoch() const { return epoch_; }
  size_t shard_count() const { return shard_count_; }

  // The shard owning global series `index`.
  size_t ShardOf(size_t index) const {
    return Partition(index, epoch_, shard_count_);
  }

  // The pure partition function (SplitMix64 finalizer over index/epoch).
  // Exposed statically so tests can pin its stability: changing it
  // silently would strand every multi-process deployment mid-rollout.
  static size_t Partition(size_t index, uint64_t epoch, size_t shard_count);

 private:
  uint64_t epoch_ = 0;
  size_t shard_count_ = 1;
};

// One shard's immutable slice of a stored dataset. Locals are packed
// contiguously (head/tail feed the SIMD LB_Kim batch rung directly);
// `global_index` maps local position -> global series index and is
// strictly ascending, so per-shard scan chunks inherit the global order.
struct ShardedDataset {
  size_t shard_id = 0;
  std::vector<size_t> global_index;  // Local -> global, ascending.
  Dataset data;                      // Z-normalized local slice.

  // envelopes[slot][local] parallels StoredDataset::bands[slot].
  std::vector<std::vector<Envelope>> envelopes;

  // LB_Kim endpoint caches for the local slice.
  std::vector<double> head;
  std::vector<double> tail;

  size_t size() const { return data.size(); }
};

// The logical (unsharded) indexed dataset: everything expensive about a
// registration, in global series order. Built once by BuildDatasetIndex
// or loaded bit-exactly from a snapshot; partitioned by RegisterIndex.
struct DatasetIndex {
  Dataset data;               // Z-normalized, global order.
  size_t uniform_length = 0;  // 0 when series lengths differ.
  std::vector<size_t> bands;  // Sorted, deduplicated half-widths.
  std::vector<std::vector<Envelope>> envelopes;  // [band slot][series].
  std::vector<double> head;
  std::vector<double> tail;
};

// Z-normalizes every series and builds the LB index at each band in
// `bands` (deduplicated; envelope index only built for uniform-length
// datasets — the 1-NN setting). The expensive half of registration.
DatasetIndex BuildDatasetIndex(Dataset dataset, std::vector<size_t> bands);

// Locates one global series inside the sharded layout.
struct SeriesRef {
  uint32_t shard = 0;
  uint32_t local = 0;
};

// An immutable, fully indexed, sharded dataset snapshot.
struct StoredDataset {
  static constexpr size_t kNoBand = static_cast<size_t>(-1);

  std::string name;
  uint64_t epoch = 0;         // Store-wide, bumped per (re-)registration.
  size_t total_series = 0;
  size_t uniform_length = 0;  // 0 when series lengths differ.
  std::vector<size_t> bands;  // Indexed half-widths (global, per shard).

  ShardRouter router;
  std::vector<ShardedDataset> shards;
  std::vector<SeriesRef> locate;  // Global index -> (shard, local).

  size_t size() const { return total_series; }
  size_t shard_count() const { return shards.size(); }

  // The series / endpoint caches for global index `i` (< size()).
  const TimeSeries& SeriesAt(size_t i) const;

  // The slot into `bands` (and every shard's `envelopes`) holding
  // envelopes of half-width `band`, or kNoBand if not indexed.
  size_t BandSlot(size_t band) const;
};

class DatasetStore {
 public:
  // Every dataset registered with this store is partitioned across
  // `shard_count` shards (>= 1; 0 is coerced to 1).
  explicit DatasetStore(size_t shard_count = 1);

  DatasetStore(const DatasetStore&) = delete;
  DatasetStore& operator=(const DatasetStore&) = delete;

  size_t shard_count() const { return shard_count_; }

  // Registers (or replaces) `name`: BuildDatasetIndex + RegisterIndex.
  // Returns the stored snapshot. Thread-safe.
  std::shared_ptr<const StoredDataset> Register(const std::string& name,
                                                Dataset dataset,
                                                std::vector<size_t> bands);

  // Registers an already built index (snapshot restore path): assigns a
  // fresh epoch and partitions the logical arrays across the store's
  // shards — a pure shuffle, no recomputation. Thread-safe.
  std::shared_ptr<const StoredDataset> RegisterIndex(const std::string& name,
                                                     DatasetIndex index);

  // The current snapshot for `name`, or nullptr if unknown.
  std::shared_ptr<const StoredDataset> Get(const std::string& name) const;

  // Registered names in sorted order.
  std::vector<std::string> Names() const;

 private:
  const size_t shard_count_;
  mutable std::mutex mutex_;
  uint64_t next_epoch_ = 1;
  std::map<std::string, std::shared_ptr<const StoredDataset>> datasets_;
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_DATASET_STORE_H_
