// Persistent index snapshots: the warp-snap-v1 on-disk format.
//
// Registering a dataset is O(dataset) in z-norms and envelope builds —
// exactly the reusable precomputation Lemire's two-pass LB work argues
// for. A snapshot persists that finished index so a restart is a read +
// re-shard instead of a recompute: save serializes the LOGICAL dataset
// (global series order — epoch, z-normed values, labels, LB_Kim
// head/tail caches, per-band LB_Keogh envelopes) with every double
// written as its raw IEEE-754 little-endian bit pattern, and load hands
// back a bit-exact DatasetIndex ready for DatasetStore::RegisterIndex().
//
// Storing the logical order (not the sharded layout) is what makes one
// snapshot valid at ANY shard count: ShardRouter::Partition is a pure
// function of (epoch, shard_count), so the restoring store re-shards the
// arrays however it is configured — a pure shuffle, no FP recomputation,
// answers bitwise-identical to the saving server's.
//
// File layout (all integers little-endian):
//
//   header   8 bytes  magic "warpsnap"
//            u32      version (currently 1)
//            u32      flags (0; readers refuse nonzero)
//            u64      payload length in bytes
//   payload  u64+...  dataset name (length, bytes)
//            u64      epoch at save time (informational; restore
//                     assigns a fresh epoch)
//            u64      uniform series length (0 = ragged)
//            u64      series count
//            u64+...  band half-widths (count, values)
//            per series: u64 length, i64 label, u64+... name,
//                        length raw-LE doubles
//            series-count raw-LE doubles  LB_Kim head cache
//            series-count raw-LE doubles  LB_Kim tail cache
//            per band, per series: length raw-LE doubles (envelope
//                        upper), length raw-LE doubles (envelope lower)
//   trailer  u64      FNV-1a 64 checksum of the payload bytes
//
// Readers REFUSE, never guess: bad magic, unsupported version, nonzero
// flags, a payload length larger than the rest of the file (checked
// before anything is allocated for it), truncation anywhere, checksum
// mismatch, structural inconsistency (ragged lengths under a uniform
// header, non-finite values, head/tail disagreeing with the series they
// cache, an envelope that does not bound its series) each fail with a
// distinct error message and leave the output untouched.
//
// This is the ONLY serve/ translation unit allowed to touch the
// filesystem (enforced by warp_lint's serve-io-containment rule).

#ifndef WARP_SERVE_SNAPSHOT_H_
#define WARP_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/serve/dataset_store.h"

namespace warp {
namespace serve {

// Extension snapshot files carry; ListSnapshotFiles filters on it.
inline constexpr char kSnapshotExtension[] = ".wsnap";

// What a snapshot file claims to contain, filled by both save and load.
struct SnapshotMeta {
  std::string dataset;
  uint64_t epoch = 0;
  size_t series = 0;
  size_t uniform_length = 0;
  std::vector<size_t> bands;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
};

// Serializes `stored` (logical order) to `path`, overwriting any
// existing file. Returns false and fills *error on IO failure.
bool SaveSnapshot(const StoredDataset& stored, const std::string& path,
                  std::string* error, SnapshotMeta* meta = nullptr);

// Reads a warp-snap-v1 file into *index (ready for RegisterIndex).
// Returns false and fills *error — refusing, never guessing — on any
// mismatch; *index is untouched on failure. `meta` is optional.
bool LoadSnapshot(const std::string& path, DatasetIndex* index,
                  SnapshotMeta* meta, std::string* error);

// The `*.wsnap` files directly inside `dir`, sorted by filename so
// auto-load order is deterministic. Returns false on an unreadable
// directory.
bool ListSnapshotFiles(const std::string& dir,
                       std::vector<std::string>* paths, std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_SNAPSHOT_H_
