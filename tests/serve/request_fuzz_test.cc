// Seeded mutation fuzz of the server's untrusted-input parsers: the wire
// JSON parser, request-line decoding (ParseRequestLine) and the
// warp-snap-v1 loader (LoadSnapshot).
//
//   * Round trip: ParseRequestLine(FormatRequest(r)) == r for seeded
//     random requests of every op, across the full range of every integer
//     field and bit-for-bit for every double.
//   * Mutation: byte flips, truncations and insertions of valid request
//     lines and of deeply nested JSON either parse or return an error —
//     never crash, never trip the ASan/UBSan legs of the sanitizer matrix.
//   * Snapshots: header and payload bytes mutated with the FNV-1a trailer
//     recomputed, so the mutations get past the checksum to the structure
//     checks. LoadSnapshot returns true or false and never throws, and
//     whatever loads registers and answers a 1nn.
//
// Deterministic: one fixed seed per test, no external fuzzer.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/common/random.h"
#include "warp/gen/random_walk.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/protocol.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {
namespace {

constexpr int kRoundTrips = 500;
constexpr int kMutationsPerLine = 2000;
constexpr int kSnapshotMutations = 3000;

double RandomFiniteDouble(Rng& rng) {
  while (true) {
    const double value = std::bit_cast<double>(rng.NextU64());
    if (std::isfinite(value)) return value;
  }
}

std::string RandomText(Rng& rng, size_t min_length) {
  // Printable ASCII plus the characters the writer must escape.
  static constexpr char kExtra[] = {'"', '\\', '\n', '\t', '\x01', '/'};
  std::string text;
  const size_t length = min_length + rng.UniformInt(uint64_t{10});
  for (size_t i = 0; i < length; ++i) {
    text.push_back(
        rng.UniformInt(uint64_t{8}) == 0
            ? kExtra[rng.UniformInt(uint64_t{sizeof(kExtra)})]
            : static_cast<char>(' ' + rng.UniformInt(uint64_t{95})));
  }
  return text;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

ServeRequest RandomRequest(Rng& rng) {
  ServeRequest r;
  r.id = static_cast<int64_t>(rng.NextU64());
  r.op = static_cast<QueryOp>(rng.UniformInt(uint64_t{5}));
  r.dataset = RandomText(rng, 1);
  r.measure = RandomText(rng, 0);
  MeasureParams& p = r.params;
  // A window is a fraction: both ends, or anything between.
  switch (rng.UniformInt(uint64_t{4})) {
    case 0: p.window_fraction = 0.0; break;
    case 1: p.window_fraction = 1.0; break;
    default: p.window_fraction = rng.NextDouble(); break;
  }
  p.band_cells = rng.UniformInt(uint64_t{2}) == 0
                     ? -1
                     : static_cast<long>(rng.NextU64() >> 1);
  p.cost = rng.UniformInt(uint64_t{2}) == 0 ? CostKind::kSquared
                                            : CostKind::kAbsolute;
  p.wdtw_g = RandomFiniteDouble(rng);
  p.wdtw_full_band = rng.UniformInt(uint64_t{2}) == 0;
  p.adtw_omega = RandomFiniteDouble(rng);
  p.adtw_ratio = RandomFiniteDouble(rng);
  p.lcss_epsilon = RandomFiniteDouble(rng);
  p.erp_gap = RandomFiniteDouble(rng);
  p.msm_cost = RandomFiniteDouble(rng);
  p.fastdtw_radius = static_cast<size_t>(rng.NextU64());
  r.k = static_cast<size_t>(rng.NextU64());
  r.threshold = RandomFiniteDouble(rng);
  r.index = static_cast<size_t>(rng.NextU64());
  r.znormalize = rng.UniformInt(uint64_t{2}) == 0;
  r.deadline_ms = RandomFiniteDouble(rng);
  r.trace = rng.UniformInt(uint64_t{2}) == 0;
  r.shard_filter = rng.UniformInt(uint64_t{2}) == 0
                       ? -1
                       : static_cast<long>(rng.NextU64() >> 1);
  r.require_epoch = rng.UniformInt(uint64_t{2}) == 0 ? 0 : rng.NextU64();
  r.query.resize(rng.UniformInt(uint64_t{6}));
  for (double& value : r.query) value = RandomFiniteDouble(rng);
  return r;
}

TEST(RequestFuzzTest, RequestLinesRoundTripAcrossTheFullRange) {
  Rng rng(0x5eed1001);
  for (int round = 0; round < kRoundTrips; ++round) {
    const ServeRequest want = RandomRequest(rng);
    const std::string line = FormatRequest(want);
    ParsedLine parsed;
    std::string error;
    ASSERT_TRUE(ParseRequestLine(line, &parsed, &error))
        << error << "\n" << line;
    ASSERT_EQ(parsed.control, ControlOp::kNone) << line;
    const ServeRequest& got = parsed.request;
    const MeasureParams& g = got.params;
    const MeasureParams& w = want.params;
    ASSERT_EQ(got.id, want.id) << line;
    ASSERT_EQ(got.op, want.op) << line;
    ASSERT_EQ(got.dataset, want.dataset) << line;
    ASSERT_EQ(got.measure, want.measure) << line;
    ASSERT_TRUE(SameBits(g.window_fraction, w.window_fraction)) << line;
    ASSERT_EQ(g.band_cells, w.band_cells) << line;
    ASSERT_EQ(g.cost, w.cost) << line;
    ASSERT_TRUE(SameBits(g.wdtw_g, w.wdtw_g)) << line;
    ASSERT_EQ(g.wdtw_full_band, w.wdtw_full_band) << line;
    ASSERT_TRUE(SameBits(g.adtw_omega, w.adtw_omega)) << line;
    ASSERT_TRUE(SameBits(g.adtw_ratio, w.adtw_ratio)) << line;
    ASSERT_TRUE(SameBits(g.lcss_epsilon, w.lcss_epsilon)) << line;
    ASSERT_TRUE(SameBits(g.erp_gap, w.erp_gap)) << line;
    ASSERT_TRUE(SameBits(g.msm_cost, w.msm_cost)) << line;
    ASSERT_EQ(g.fastdtw_radius, w.fastdtw_radius) << line;
    ASSERT_EQ(got.k, want.k) << line;
    ASSERT_TRUE(SameBits(got.threshold, want.threshold)) << line;
    ASSERT_EQ(got.index, want.index) << line;
    ASSERT_EQ(got.znormalize, want.znormalize) << line;
    ASSERT_TRUE(SameBits(got.deadline_ms, want.deadline_ms)) << line;
    ASSERT_EQ(got.trace, want.trace) << line;
    ASSERT_EQ(got.shard_filter, want.shard_filter) << line;
    ASSERT_EQ(got.require_epoch, want.require_epoch) << line;
    ASSERT_EQ(got.query.size(), want.query.size()) << line;
    for (size_t i = 0; i < want.query.size(); ++i) {
      ASSERT_TRUE(SameBits(got.query[i], want.query[i])) << line;
    }
  }
}

// One seeded mutation: a byte flip, a truncation, or an insertion of a
// random byte or of a fragment that opens, closes or breaks a value.
std::string Mutate(const std::string& line, Rng& rng) {
  static const char* const kFragments[] = {
      "[", "]", "{", "}", "\"", ",", ":", "\\", "\\u", "\\ud800", "-",
      "1e999", "-1e999", "1e-400", "0.", "01", "null", "true", "[[[[",
      "{\"a\":", "\"window\":-5,", "\"k\":1e300,", "\xff"};
  std::string out = line;
  const size_t pos = rng.UniformInt(uint64_t{out.size() + 1});
  switch (rng.UniformInt(uint64_t{4})) {
    case 0:
      if (pos < out.size()) {
        out[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
      }
      break;
    case 1:
      out.resize(pos);
      break;
    case 2:
      out.insert(pos, 1, static_cast<char>(rng.UniformInt(uint64_t{256})));
      break;
    default:
      out.insert(pos, kFragments[rng.UniformInt(
                          uint64_t{std::size(kFragments)})]);
      break;
  }
  return out;
}

TEST(RequestFuzzTest, MutatedLinesParseOrFailButNeverCrash) {
  Rng rng(0x5eed1002);
  std::vector<std::string> seeds;
  for (int i = 0; i < 5; ++i) {
    seeds.push_back(FormatRequest(RandomRequest(rng)));
  }
  seeds.push_back(R"({"id":7,"op":"load","dataset":"d","path":"p",)"
                  R"("bands":[0.05,0.1]})");
  seeds.push_back(R"({"id":8,"op":"save_snapshot","dataset":"d",)"
                  R"("path":"x.wsnap"})");
  seeds.push_back(R"({"id":9,"op":"info","dataset":"dé\n"})");
  // Nested JSON around and inside the fields, close to the depth limit.
  std::string nested = R"({"op":"1nn","dataset":"d","query":[1,2],"x":)";
  for (int i = 0; i < 30; ++i) nested += i % 2 == 0 ? "[" : R"({"k":)";
  nested += "0";
  for (int i = 29; i >= 0; --i) nested += i % 2 == 0 ? "]" : "}";
  nested += "}";
  seeds.push_back(nested);
  for (const std::string& seed : seeds) {
    ParsedLine parsed;
    std::string error;
    ASSERT_TRUE(ParseRequestLine(seed, &parsed, &error)) << error << seed;
  }

  size_t accepted = 0;
  size_t rejected = 0;
  for (const std::string& seed : seeds) {
    for (int round = 0; round < kMutationsPerLine; ++round) {
      std::string line = Mutate(seed, rng);
      if (rng.UniformInt(uint64_t{4}) == 0) line = Mutate(line, rng);
      JsonValue value;
      std::string error;
      ParseJson(line, &value, &error);
      ParsedLine parsed;
      error.clear();
      if (ParseRequestLine(line, &parsed, &error)) {
        ++accepted;
        if (parsed.control == ControlOp::kNone) {
          const double window = parsed.request.params.window_fraction;
          EXPECT_TRUE(window >= 0.0 && window <= 1.0) << line;
        }
      } else {
        ++rejected;
        EXPECT_FALSE(error.empty()) << line;
      }
    }
  }
  // Both outcomes must actually occur, or the mutator is not exercising
  // the parser.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

uint64_t Fnv1a(const std::string& bytes, size_t begin, size_t end) {
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = begin; i < end; ++i) {
    hash ^= static_cast<unsigned char>(bytes[i]);
    hash *= 1099511628211ull;
  }
  return hash;
}

void PutU64(std::string* bytes, size_t at, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

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

bool Spit(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

// One seeded mutation of a snapshot file (24-byte header, payload, 8-byte
// FNV-1a trailer): a header byte, a payload byte, a 64-bit payload field
// set to an edge value, or a payload resized with its length field to
// match. The trailer is recomputed over the payload as the file lays it
// out, so most mutations reach the structure checks.
std::string MutateSnapshot(const std::string& file, Rng& rng) {
  static constexpr uint64_t kEdges[] = {
      0, 1, 2, 7, 8, 0xffffffffull, 1ull << 32, 1ull << 40, 1ull << 62,
      ~0ull, ~0ull - 7};
  constexpr size_t kHeader = 24;
  std::string out = file;
  const size_t payload = out.size() - kHeader - 8;
  switch (rng.UniformInt(uint64_t{4})) {
    case 0:
      out[rng.UniformInt(uint64_t{kHeader})] =
          static_cast<char>(rng.UniformInt(uint64_t{256}));
      break;
    case 1:
      out[kHeader + rng.UniformInt(uint64_t{payload})] =
          static_cast<char>(rng.UniformInt(uint64_t{256}));
      break;
    case 2: {
      // The leading fields (name length, epoch, uniform length, series
      // count, band count, bands, first series header) are all u64s.
      const size_t at = kHeader + rng.UniformInt(uint64_t{payload - 8});
      const uint64_t value =
          rng.UniformInt(uint64_t{3}) == 0
              ? rng.NextU64()
              : kEdges[rng.UniformInt(uint64_t{std::size(kEdges)})];
      PutU64(&out, at, value);
      break;
    }
    default: {
      const size_t cut = kHeader + rng.UniformInt(uint64_t{payload});
      const size_t extra = rng.UniformInt(uint64_t{3}) == 0
                               ? rng.UniformInt(uint64_t{24})
                               : 0;
      out = out.substr(0, cut) + std::string(extra, '\0') +
            out.substr(out.size() - 8);
      PutU64(&out, 16, out.size() - kHeader - 8);
      break;
    }
  }
  PutU64(&out, out.size() - 8, Fnv1a(out, kHeader, out.size() - 8));
  return out;
}

TEST(RequestFuzzTest, MutatedSnapshotsLoadOrRefuseAndWhatLoadsAnswers) {
  Rng rng(0x5eed1003);
  DatasetStore source(2);
  const auto stored =
      source.Register("fuzz", gen::RandomWalkDataset(6, 12, 5), {1, 3});
  const std::string path = ::testing::TempDir() + "/request_fuzz.wsnap";
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*stored, path, &error)) << error;
  const std::string original = Slurp(path);
  ASSERT_GT(original.size(), 32u);

  DatasetStore store(3);
  QueryEngine engine(&store, nullptr, 1);
  size_t loaded = 0;
  for (int round = 0; round < kSnapshotMutations; ++round) {
    ASSERT_TRUE(Spit(path, MutateSnapshot(original, rng)));
    DatasetIndex index;
    bool ok = false;
    ASSERT_NO_THROW(ok = LoadSnapshot(path, &index, nullptr, &error))
        << "round " << round;
    if (!ok) {
      EXPECT_FALSE(error.empty());
      continue;
    }
    ++loaded;
    const size_t length = index.data[0].size();
    store.RegisterIndex("fuzz", std::move(index));
    ServeRequest request;
    request.op = QueryOp::k1Nn;
    request.dataset = "fuzz";
    request.query.resize(length);
    for (double& value : request.query) value = rng.Uniform(-1.0, 1.0);
    const ServeResponse response = engine.Run(request);
    EXPECT_TRUE(response.ok) << "round " << round << ": " << response.error;
  }
  // Some mutations (an epoch, a label, a value with the caches patched to
  // match) still describe a servable dataset.
  EXPECT_GT(loaded, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace warp
