// warp-snap-v1 tests: a save→load round trip must reproduce every stored
// array bit-for-bit, a snapshot must restore at any shard count, and
// every malformed-file path must refuse with a precise error instead of
// guessing.

#include "warp/serve/snapshot.h"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/gen/random_walk.h"
#include "warp/serve/dataset_store.h"

namespace warp {
namespace serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Reads a whole file; empty on failure (the tests only patch files they
// just wrote).
std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string bytes;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);
  return bytes;
}

void Spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A registered, sharded dataset to snapshot: 3 shards exercises the
// locate-based global-order walk in SaveSnapshot.
std::shared_ptr<const StoredDataset> MakeStored(size_t shards = 3) {
  DatasetStore store(shards);
  return store.Register("trips", gen::RandomWalkDataset(17, 24, 99), {2, 5});
}

TEST(SnapshotTest, RoundTripReproducesEveryArrayBitwise) {
  const auto stored = MakeStored();
  const std::string path = TempPath("roundtrip.wsnap");
  std::string error;
  SnapshotMeta saved;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error, &saved)) << error;
  EXPECT_EQ(saved.dataset, "trips");
  EXPECT_EQ(saved.epoch, stored->epoch);
  EXPECT_EQ(saved.series, stored->size());
  EXPECT_EQ(saved.uniform_length, stored->uniform_length);
  EXPECT_EQ(saved.bands, stored->bands);

  DatasetIndex loaded;
  SnapshotMeta meta;
  ASSERT_TRUE(LoadSnapshot(path, &loaded, &meta, &error)) << error;
  EXPECT_EQ(meta.dataset, saved.dataset);
  EXPECT_EQ(meta.checksum, saved.checksum);
  EXPECT_EQ(meta.payload_bytes, saved.payload_bytes);

  ASSERT_EQ(loaded.data.size(), stored->size());
  EXPECT_EQ(loaded.uniform_length, stored->uniform_length);
  EXPECT_EQ(loaded.bands, stored->bands);
  ASSERT_EQ(loaded.head.size(), stored->size());
  ASSERT_EQ(loaded.tail.size(), stored->size());
  ASSERT_EQ(loaded.envelopes.size(), stored->bands.size());
  for (size_t i = 0; i < stored->size(); ++i) {
    const TimeSeries& original = stored->SeriesAt(i);
    EXPECT_EQ(loaded.data[i].values(), original.values()) << "series " << i;
    EXPECT_EQ(loaded.data[i].label(), original.label());
    EXPECT_EQ(loaded.data[i].name(), original.name());
    const SeriesRef ref = stored->locate[i];
    EXPECT_EQ(loaded.head[i], stored->shards[ref.shard].head[ref.local]);
    EXPECT_EQ(loaded.tail[i], stored->shards[ref.shard].tail[ref.local]);
    for (size_t slot = 0; slot < stored->bands.size(); ++slot) {
      const Envelope& original_env =
          stored->shards[ref.shard].envelopes[slot][ref.local];
      EXPECT_EQ(loaded.envelopes[slot][i].upper, original_env.upper);
      EXPECT_EQ(loaded.envelopes[slot][i].lower, original_env.lower);
    }
  }
  std::remove(path.c_str());
}

// One file, any shard count: registering the loaded index into stores of
// different widths yields the same logical dataset.
TEST(SnapshotTest, LoadedIndexRegistersAtAnyShardCount) {
  const auto stored = MakeStored(2);
  const std::string path = TempPath("reshard.wsnap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;

  for (const size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    DatasetIndex index;
    ASSERT_TRUE(LoadSnapshot(path, &index, nullptr, &error)) << error;
    DatasetStore store(shards);
    const auto restored = store.RegisterIndex("trips", std::move(index));
    ASSERT_EQ(restored->size(), stored->size());
    EXPECT_EQ(restored->shard_count(), shards);
    EXPECT_EQ(restored->bands, stored->bands);
    for (size_t i = 0; i < stored->size(); ++i) {
      EXPECT_EQ(restored->SeriesAt(i).values(), stored->SeriesAt(i).values());
      EXPECT_EQ(restored->SeriesAt(i).label(), stored->SeriesAt(i).label());
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileRefuses) {
  DatasetIndex index;
  std::string error;
  EXPECT_FALSE(
      LoadSnapshot(TempPath("does_not_exist.wsnap"), &index, nullptr, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(SnapshotTest, TruncatedHeaderRefuses) {
  const std::string path = TempPath("trunc_header.wsnap");
  Spit(path, "warpsn");  // Shorter than the fixed header.
  DatasetIndex index;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("truncated snapshot header"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, BadMagicRefuses) {
  const std::string path = TempPath("bad_magic.wsnap");
  Spit(path, std::string("notasnap") + std::string(32, '\0'));
  DatasetIndex index;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("bad snapshot magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, FutureVersionRefuses) {
  const auto stored = MakeStored();
  const std::string path = TempPath("future_version.wsnap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;
  std::string bytes = Slurp(path);
  ASSERT_GE(bytes.size(), 12u);
  bytes[8] = 9;  // Version field (u32 LE) right after the magic.
  Spit(path, bytes);
  DatasetIndex index;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("unsupported snapshot version 9"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, CorruptPayloadRefusesOnChecksum) {
  const auto stored = MakeStored();
  const std::string path = TempPath("corrupt.wsnap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;
  std::string bytes = Slurp(path);
  ASSERT_GT(bytes.size(), 200u);
  bytes[100] = static_cast<char>(bytes[100] ^ 0x40);  // Flip a payload bit.
  Spit(path, bytes);
  DatasetIndex index;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedPayloadRefuses) {
  const auto stored = MakeStored();
  const std::string path = TempPath("trunc_payload.wsnap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;
  const std::string bytes = Slurp(path);
  Spit(path, bytes.substr(0, 24 + (bytes.size() - 32) / 2));
  DatasetIndex index;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("truncated snapshot"), std::string::npos) << error;
  std::remove(path.c_str());
}

// The header's payload length is untrusted: a claim larger than the file
// is refused before anything is allocated for it, so a 40-byte file cannot
// ask for 2^62 bytes.
TEST(SnapshotTest, OversizedPayloadLengthRefusesWithoutAllocating) {
  const auto stored = MakeStored();
  const std::string path = TempPath("oversized.wsnap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;
  const std::string bytes = Slurp(path);
  for (const uint64_t claimed : {uint64_t{1} << 62, uint64_t{1} << 40}) {
    SCOPED_TRACE(claimed);
    for (const size_t keep : {size_t{40}, bytes.size()}) {
      std::string patched = bytes.substr(0, keep);
      for (int i = 0; i < 8; ++i) {
        patched[16 + i] = static_cast<char>((claimed >> (8 * i)) & 0xff);
      }
      Spit(path, patched);
      DatasetIndex index;
      bool loaded = true;
      EXPECT_NO_THROW(loaded = LoadSnapshot(path, &index, nullptr, &error));
      EXPECT_FALSE(loaded);
      EXPECT_NE(error.find("truncated snapshot payload"), std::string::npos)
          << error;
    }
  }
  std::remove(path.c_str());
}

// An envelope is derived data the cascade trusts: one that does not bound
// its series (here the last lower-envelope value raised above it, with the
// checksum recomputed) is refused, not served.
TEST(SnapshotTest, EnvelopeThatDoesNotBoundItsSeriesRefuses) {
  const auto stored = MakeStored();
  const std::string path = TempPath("bad_envelope.wsnap");
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;
  std::string bytes = Slurp(path);
  const auto put_u64 = [&bytes](size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  const size_t trailer = bytes.size() - 8;
  put_u64(trailer - 8, std::bit_cast<uint64_t>(1e300));
  uint64_t checksum = 1469598103934665603ull;
  for (size_t i = 24; i < trailer; ++i) {
    checksum ^= static_cast<unsigned char>(bytes[i]);
    checksum *= 1099511628211ull;
  }
  put_u64(trailer, checksum);
  Spit(path, bytes);
  DatasetIndex index;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("envelope does not bound its series"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

// A structurally valid, checksummed file claiming zero series must still
// be refused: an empty dataset is never servable.
TEST(SnapshotTest, EmptySnapshotRefuses) {
  std::string payload;
  const auto put_u64 = [&payload](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      payload.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_u64(1);  // name length
  payload.push_back('x');
  put_u64(1);  // epoch
  put_u64(0);  // uniform_length
  put_u64(0);  // series_count == 0
  put_u64(0);  // band count
  uint64_t checksum = 1469598103934665603ull;
  for (const char c : payload) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 1099511628211ull;
  }
  std::string bytes = "warpsnap";
  const auto put_u32 = [&bytes](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put_u32(1);  // version
  put_u32(0);  // flags
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  }
  bytes += payload;
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  const std::string path = TempPath("empty.wsnap");
  Spit(path, bytes);
  DatasetIndex index;
  std::string error;
  EXPECT_FALSE(LoadSnapshot(path, &index, nullptr, &error));
  EXPECT_NE(error.find("no series"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(SnapshotTest, ListSnapshotFilesFiltersAndSorts) {
  const std::string dir = ::testing::TempDir() + "/wsnap_list_test";
  std::remove((dir + "/b.wsnap").c_str());
  std::remove((dir + "/a.wsnap").c_str());
  std::remove((dir + "/ignore.txt").c_str());
  std::filesystem::create_directories(dir);
  Spit(dir + "/b.wsnap", "x");
  Spit(dir + "/a.wsnap", "x");
  Spit(dir + "/ignore.txt", "x");
  std::vector<std::string> paths;
  std::string error;
  ASSERT_TRUE(ListSnapshotFiles(dir, &paths, &error)) << error;
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], dir + "/a.wsnap");
  EXPECT_EQ(paths[1], dir + "/b.wsnap");

  EXPECT_FALSE(
      ListSnapshotFiles(dir + "/missing_subdir", &paths, &error));
  EXPECT_NE(error.find("cannot read snapshot directory"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace warp
