// DatasetStore tests: the precomputed LB index must match what a query
// would compute from scratch, epoch/snapshot semantics must hold, and
// the sharded layout must be a pure re-arrangement of the logical
// dataset (same series, envelopes, and endpoint caches at any shard
// count).

#include "warp/serve/dataset_store.h"

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "warp/core/envelope.h"
#include "warp/gen/random_walk.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace serve {
namespace {

TEST(DatasetStoreTest, RegisterZNormalizesEverySeries) {
  const Dataset raw = gen::RandomWalkDataset(6, 32, 7);
  DatasetStore store;
  const auto stored = store.Register("d", raw, {});
  ASSERT_EQ(stored->size(), raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(stored->SeriesAt(i).values(), ZNormalized(raw[i].values()))
        << "series " << i;
  }
  EXPECT_EQ(stored->uniform_length, 32u);
}

// The index exists so queries skip per-candidate envelope builds; it is
// only sound if it equals ComputeEnvelope on the z-normalized series.
TEST(DatasetStoreTest, EnvelopeIndexMatchesComputeEnvelope) {
  const Dataset raw = gen::RandomWalkDataset(5, 40, 13);
  DatasetStore store;
  const auto stored = store.Register("d", raw, {2, 8});
  ASSERT_EQ(stored->bands, (std::vector<size_t>{2, 8}));
  for (size_t b = 0; b < stored->bands.size(); ++b) {
    for (size_t i = 0; i < raw.size(); ++i) {
      const SeriesRef ref = stored->locate[i];
      const Envelope& actual = stored->shards[ref.shard].envelopes[b][ref.local];
      const Envelope expected =
          ComputeEnvelope(stored->SeriesAt(i).values(), stored->bands[b]);
      EXPECT_EQ(actual.upper, expected.upper);
      EXPECT_EQ(actual.lower, expected.lower);
    }
  }
}

TEST(DatasetStoreTest, HeadTailCachesMatchEndpoints) {
  const Dataset raw = gen::RandomWalkDataset(4, 16, 3);
  DatasetStore store;
  const auto stored = store.Register("d", raw, {1});
  for (size_t i = 0; i < raw.size(); ++i) {
    const SeriesRef ref = stored->locate[i];
    EXPECT_EQ(stored->shards[ref.shard].head[ref.local],
              stored->SeriesAt(i).values().front());
    EXPECT_EQ(stored->shards[ref.shard].tail[ref.local],
              stored->SeriesAt(i).values().back());
  }
}

TEST(DatasetStoreTest, BandSlotLookup) {
  DatasetStore store;
  const auto stored =
      store.Register("d", gen::RandomWalkDataset(3, 20, 1), {4, 4, 9});
  EXPECT_EQ(stored->bands, (std::vector<size_t>{4, 9}));  // Deduplicated.
  EXPECT_EQ(stored->BandSlot(4), 0u);
  EXPECT_EQ(stored->BandSlot(9), 1u);
  EXPECT_EQ(stored->BandSlot(5), StoredDataset::kNoBand);
}

TEST(DatasetStoreTest, NonUniformDatasetsSkipTheIndex) {
  Dataset ragged;
  ragged.Add(TimeSeries({1.0, 2.0, 3.0}, 0));
  ragged.Add(TimeSeries({1.0, 2.0}, 1));
  DatasetStore store;
  const auto stored = store.Register("r", ragged, {1});
  EXPECT_EQ(stored->uniform_length, 0u);
  EXPECT_TRUE(stored->bands.empty());
  // Endpoint caches are length-independent and still present.
  EXPECT_EQ(stored->size(), 2u);
  size_t cached = 0;
  for (const ShardedDataset& shard : stored->shards) {
    cached += shard.head.size();
  }
  EXPECT_EQ(cached, 2u);
}

TEST(DatasetStoreTest, EveryRegistrationBumpsTheEpoch) {
  DatasetStore store;
  const auto first = store.Register("a", gen::RandomWalkDataset(2, 8, 1), {});
  const auto second = store.Register("b", gen::RandomWalkDataset(2, 8, 2), {});
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(second->epoch, 2u);
  // Replacing a name gets a fresh epoch, never a reused one.
  const auto replaced =
      store.Register("a", gen::RandomWalkDataset(2, 8, 3), {});
  EXPECT_EQ(replaced->epoch, 3u);
  EXPECT_EQ(store.Get("a")->epoch, 3u);
}

TEST(DatasetStoreTest, OutstandingSnapshotsSurviveReplacement) {
  DatasetStore store;
  const auto old = store.Register("d", gen::RandomWalkDataset(2, 8, 1), {});
  store.Register("d", gen::RandomWalkDataset(5, 8, 2), {});
  EXPECT_EQ(old->size(), 2u);  // The old snapshot is untouched.
  EXPECT_EQ(store.Get("d")->size(), 5u);
}

TEST(DatasetStoreTest, NamesAreSorted) {
  DatasetStore store;
  store.Register("zeta", gen::RandomWalkDataset(1, 4, 1), {});
  store.Register("alpha", gen::RandomWalkDataset(1, 4, 2), {});
  store.Register("mid", gen::RandomWalkDataset(1, 4, 3), {});
  EXPECT_EQ(store.Names(),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
  EXPECT_EQ(store.Get("nope"), nullptr);
}

// ---- Sharding.

// The partition function is a pure function of (index, epoch, shards):
// pinned here because the snapshot format's any-shard-count promise (and
// any future multi-process deployment) depends on its stability.
TEST(DatasetStoreTest, PartitionIsPureAndPinned) {
  for (size_t index : {0u, 1u, 17u, 1000u}) {
    for (uint64_t epoch : {1u, 2u, 9u}) {
      for (size_t shards : {1u, 2u, 4u, 7u}) {
        const size_t assigned = ShardRouter::Partition(index, epoch, shards);
        EXPECT_LT(assigned, shards);
        EXPECT_EQ(assigned, ShardRouter::Partition(index, epoch, shards));
      }
    }
  }
  // Every index maps to shard 0 when there is only one shard.
  EXPECT_EQ(ShardRouter::Partition(123, 5, 1), 0u);
  // Fixed spot values: a silent change to the mix would strand every
  // process that persisted or agreed on a layout.
  EXPECT_EQ(ShardRouter::Partition(0, 1, 4), 0u);
  EXPECT_EQ(ShardRouter::Partition(1, 1, 4), 3u);
  EXPECT_EQ(ShardRouter::Partition(2, 1, 4), 2u);
  EXPECT_EQ(ShardRouter::Partition(3, 1, 4), 1u);
  EXPECT_EQ(ShardRouter::Partition(0, 2, 4), 3u);
}

// The sharded layout must cover every series exactly once, keep local
// order ascending in global index, and agree with `locate`.
TEST(DatasetStoreTest, ShardedLayoutIsAPartition) {
  const Dataset raw = gen::RandomWalkDataset(29, 24, 11);
  for (size_t shard_count : {1u, 2u, 4u, 7u}) {
    DatasetStore store(shard_count);
    const auto stored = store.Register("d", raw, {3});
    EXPECT_EQ(stored->shard_count(), shard_count);
    EXPECT_EQ(stored->size(), raw.size());
    std::set<size_t> seen;
    for (const ShardedDataset& shard : stored->shards) {
      ASSERT_EQ(shard.global_index.size(), shard.data.size());
      ASSERT_EQ(shard.head.size(), shard.data.size());
      ASSERT_EQ(shard.tail.size(), shard.data.size());
      for (size_t local = 0; local < shard.global_index.size(); ++local) {
        const size_t global = shard.global_index[local];
        EXPECT_TRUE(seen.insert(global).second) << "duplicate " << global;
        EXPECT_EQ(stored->router.ShardOf(global), shard.shard_id);
        EXPECT_EQ(stored->locate[global].shard, shard.shard_id);
        EXPECT_EQ(stored->locate[global].local, local);
        if (local > 0) {
          EXPECT_LT(shard.global_index[local - 1], global);
        }
      }
    }
    EXPECT_EQ(seen.size(), raw.size());
  }
}

// Sharding must not change any stored value: series, endpoint caches,
// and envelopes at 7 shards are bitwise-equal to the 1-shard layout.
TEST(DatasetStoreTest, ShardingIsAPureRearrangement) {
  const Dataset raw = gen::RandomWalkDataset(23, 30, 5);
  DatasetStore single(1);
  DatasetStore sharded(7);
  const auto base = single.Register("d", raw, {2, 6});
  const auto split = sharded.Register("d", raw, {2, 6});
  ASSERT_EQ(base->size(), split->size());
  ASSERT_EQ(base->bands, split->bands);
  for (size_t i = 0; i < base->size(); ++i) {
    EXPECT_EQ(base->SeriesAt(i).values(), split->SeriesAt(i).values());
    EXPECT_EQ(base->SeriesAt(i).label(), split->SeriesAt(i).label());
    const SeriesRef b = base->locate[i];
    const SeriesRef s = split->locate[i];
    EXPECT_EQ(base->shards[b.shard].head[b.local],
              split->shards[s.shard].head[s.local]);
    EXPECT_EQ(base->shards[b.shard].tail[b.local],
              split->shards[s.shard].tail[s.local]);
    for (size_t slot = 0; slot < base->bands.size(); ++slot) {
      EXPECT_EQ(base->shards[b.shard].envelopes[slot][b.local].upper,
                split->shards[s.shard].envelopes[slot][s.local].upper);
      EXPECT_EQ(base->shards[b.shard].envelopes[slot][b.local].lower,
                split->shards[s.shard].envelopes[slot][s.local].lower);
    }
  }
}

// RegisterIndex must be equivalent to Register when handed the same
// built index (the snapshot-restore entry point).
TEST(DatasetStoreTest, RegisterIndexMatchesRegister) {
  const Dataset raw = gen::RandomWalkDataset(12, 20, 9);
  DatasetIndex index = BuildDatasetIndex(raw, {2});
  DatasetStore direct(4);
  DatasetStore via_index(4);
  const auto a = direct.Register("d", raw, {2});
  const auto b = via_index.RegisterIndex("d", std::move(index));
  ASSERT_EQ(a->epoch, b->epoch);  // Both are each store's first epoch.
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->SeriesAt(i).values(), b->SeriesAt(i).values());
    EXPECT_EQ(a->locate[i].shard, b->locate[i].shard);
    EXPECT_EQ(a->locate[i].local, b->locate[i].local);
  }
}

}  // namespace
}  // namespace serve
}  // namespace warp
