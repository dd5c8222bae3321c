#include "warp/serve/dataset_store.h"

#include <algorithm>
#include <utility>

#include "warp/common/assert.h"

namespace warp {
namespace serve {

size_t ShardRouter::Partition(size_t index, uint64_t epoch,
                              size_t shard_count) {
  if (shard_count <= 1) return 0;
  // SplitMix64 finalizer over (index, epoch). This exact mix is part of
  // the snapshot compatibility contract — see the header comment.
  uint64_t x = static_cast<uint64_t>(index) +
               0x9E3779B97F4A7C15ull * (epoch + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<size_t>(x % shard_count);
}

const TimeSeries& StoredDataset::SeriesAt(size_t i) const {
  WARP_CHECK_MSG(i < locate.size(), "series index out of range");
  const SeriesRef ref = locate[i];
  return shards[ref.shard].data[ref.local];
}

size_t StoredDataset::BandSlot(size_t band) const {
  for (size_t i = 0; i < bands.size(); ++i) {
    if (bands[i] == band) return i;
  }
  return kNoBand;
}

DatasetIndex BuildDatasetIndex(Dataset dataset, std::vector<size_t> bands) {
  WARP_CHECK_MSG(!dataset.empty(), "cannot register an empty dataset");
  DatasetIndex index;
  dataset.ZNormalizeAll();
  index.uniform_length = dataset.UniformLength();
  index.data = std::move(dataset);

  const size_t count = index.data.size();
  index.head.reserve(count);
  index.tail.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const TimeSeries& s = index.data[i];
    WARP_CHECK_MSG(!s.empty(), "cannot index an empty series");
    index.head.push_back(s[0]);
    index.tail.push_back(s[s.size() - 1]);
  }

  std::sort(bands.begin(), bands.end());
  bands.erase(std::unique(bands.begin(), bands.end()), bands.end());
  if (index.uniform_length > 0) {
    for (const size_t band : bands) {
      std::vector<Envelope> per_series;
      per_series.reserve(count);
      for (size_t i = 0; i < count; ++i) {
        per_series.push_back(ComputeEnvelope(index.data[i].view(), band));
      }
      index.bands.push_back(band);
      index.envelopes.push_back(std::move(per_series));
    }
  }
  return index;
}

namespace {

// Partitions a built index across `shard_count` shards under `epoch`.
// Pure data movement: every series (and its envelopes / endpoint cache
// entries) is moved, never recomputed, so the sharded layout is a
// bit-exact re-arrangement of the logical one.
std::shared_ptr<const StoredDataset> PartitionIndex(const std::string& name,
                                                    DatasetIndex index,
                                                    uint64_t epoch,
                                                    size_t shard_count) {
  auto stored = std::make_shared<StoredDataset>();
  stored->name = name;
  stored->epoch = epoch;
  stored->total_series = index.data.size();
  stored->uniform_length = index.uniform_length;
  stored->bands = index.bands;
  stored->router = ShardRouter(epoch, shard_count);
  shard_count = stored->router.shard_count();

  const size_t count = index.data.size();
  const size_t band_count = index.bands.size();
  stored->shards.resize(shard_count);
  for (size_t s = 0; s < shard_count; ++s) {
    stored->shards[s].shard_id = s;
    stored->shards[s].data.set_name(index.data.name());
    stored->shards[s].envelopes.resize(band_count);
  }
  stored->locate.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t s = stored->router.ShardOf(i);
    ShardedDataset& shard = stored->shards[s];
    stored->locate[i].shard = static_cast<uint32_t>(s);
    stored->locate[i].local = static_cast<uint32_t>(shard.size());
    shard.global_index.push_back(i);
    shard.data.Add(std::move(index.data[i]));
    shard.head.push_back(index.head[i]);
    shard.tail.push_back(index.tail[i]);
    for (size_t b = 0; b < band_count; ++b) {
      shard.envelopes[b].push_back(std::move(index.envelopes[b][i]));
    }
  }
  return stored;
}

}  // namespace

DatasetStore::DatasetStore(size_t shard_count)
    : shard_count_(shard_count == 0 ? 1 : shard_count) {}

std::shared_ptr<const StoredDataset> DatasetStore::Register(
    const std::string& name, Dataset dataset, std::vector<size_t> bands) {
  // The expensive part (z-norm + envelope builds) runs outside the lock.
  return RegisterIndex(name,
                       BuildDatasetIndex(std::move(dataset), std::move(bands)));
}

std::shared_ptr<const StoredDataset> DatasetStore::RegisterIndex(
    const std::string& name, DatasetIndex index) {
  WARP_CHECK_MSG(!index.data.empty(), "cannot register an empty dataset");
  std::lock_guard<std::mutex> lock(mutex_);
  auto stored =
      PartitionIndex(name, std::move(index), next_epoch_++, shard_count_);
  datasets_[name] = stored;
  return stored;
}

std::shared_ptr<const StoredDataset> DatasetStore::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

std::vector<std::string> DatasetStore::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, dataset] : datasets_) names.push_back(name);
  return names;
}

}  // namespace serve
}  // namespace warp
