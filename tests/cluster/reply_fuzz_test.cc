// Seeded mutation fuzz of the worker-reply parsers the cluster router
// relies on: ParseResponseLine (sub-scan replies), ParseTelemetryReply
// (stats / metrics / telemetry fan-out) and ParseSlowlogReply.
//
//   * Round trip: Parse(Format(x)) == x for seeded random values across
//     the full 64-bit range of every integer field, and bit-for-bit for
//     every double.
//   * Mutation: byte flips, truncations and type swaps of valid lines
//     either parse or return an error — never crash, never trip the
//     ASan/UBSan legs of the sanitizer matrix. Whatever does parse is
//     merged and rendered, so hostile values also reach the renderers.
//   * End to end: a worker whose scan replies are corrupt
//     (garbling_worker.cc) costs the router that shard — the answer is
//     flagged partial:true with the shard in shards_missing — instead of
//     a merged wrong answer.
//
// Deterministic: one fixed seed per test, no external fuzzer.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/router.h"
#include "warp/cluster/supervisor.h"
#include "warp/common/random.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/protocol.h"
#include "warp/serve/request.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/telemetry.h"

namespace warp {
namespace cluster {
namespace {

constexpr int kRoundTrips = 300;
constexpr int kMutationsPerLine = 1500;

double RandomFiniteDouble(Rng& rng) {
  while (true) {
    const double value = std::bit_cast<double>(rng.NextU64());
    if (std::isfinite(value)) return value;
  }
}

int64_t RandomInt64(Rng& rng) { return static_cast<int64_t>(rng.NextU64()); }

std::string RandomText(Rng& rng) {
  // Printable ASCII plus the characters the writer must escape.
  static constexpr char kExtra[] = {'"', '\\', '\n', '\t', '\x01', '/'};
  std::string text;
  const size_t length = rng.UniformInt(uint64_t{12});
  for (size_t i = 0; i < length; ++i) {
    text.push_back(rng.UniformInt(uint64_t{8}) == 0
                       ? kExtra[rng.UniformInt(uint64_t{sizeof(kExtra)})]
                       : static_cast<char>(' ' + rng.UniformInt(uint64_t{95})));
  }
  return text;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

serve::ServeResponse RandomResponse(Rng& rng) {
  serve::ServeResponse r;
  r.id = RandomInt64(rng);
  r.ok = rng.UniformInt(uint64_t{5}) != 0;
  if (!r.ok) {
    r.error = RandomText(rng);
    return r;
  }
  r.op = static_cast<serve::QueryOp>(rng.UniformInt(uint64_t{5}));
  r.partial = rng.UniformInt(uint64_t{2}) == 0;
  r.scanned = rng.NextU64();
  r.total = rng.NextU64();
  if (serve::IsScanOp(r.op)) {
    const size_t n = rng.UniformInt(uint64_t{5});
    for (size_t i = 0; i < n; ++i) {
      r.neighbors.push_back({static_cast<size_t>(rng.NextU64()),
                             static_cast<int>(RandomInt64(rng)),
                             RandomFiniteDouble(rng)});
    }
  } else {
    r.distance = RandomFiniteDouble(rng);
    if (r.op == serve::QueryOp::kSubsequence) {
      r.position = static_cast<size_t>(rng.NextU64());
    }
  }
  const size_t missing = rng.UniformInt(uint64_t{3});
  for (size_t i = 0; i < missing; ++i) {
    r.shards_missing.push_back(static_cast<size_t>(rng.NextU64()));
  }
  return r;
}

serve::Telemetry RandomTelemetry(Rng& rng) {
  serve::Telemetry t;
  for (uint64_t& v : t.counters.values) v = rng.NextU64();
  for (int64_t& v : t.gauges.values) v = RandomInt64(rng);
  for (obs::HistogramData& h : t.histograms.series) {
    h.count = rng.NextU64();
    h.sum = rng.NextU64();
    for (uint64_t& b : h.buckets) {
      b = rng.UniformInt(uint64_t{3}) == 0 ? rng.NextU64() : 0;
    }
  }
  t.cache = {rng.NextU64(), rng.NextU64(), rng.NextU64(), rng.NextU64(),
             rng.NextU64()};
  t.slowlog_capacity = rng.NextU64();
  t.slowlog_pending = rng.NextU64();
  t.shards = rng.NextU64();
  const size_t names = rng.UniformInt(uint64_t{4});
  for (size_t i = 0; i < names; ++i) {
    std::string name = std::to_string(i);
    name += RandomText(rng);
    t.datasets.push_back(std::move(name));
  }
  std::sort(t.datasets.begin(), t.datasets.end());
  return t;
}

std::vector<serve::SlowQueryRecord> RandomSlowlog(Rng& rng) {
  std::vector<serve::SlowQueryRecord> entries(rng.UniformInt(uint64_t{4}));
  for (serve::SlowQueryRecord& e : entries) {
    e.id = RandomInt64(rng);
    e.op = RandomText(rng);
    e.dataset = RandomText(rng);
    e.measure = RandomText(rng);
    e.engine_us = RandomFiniteDouble(rng);
    e.total_us = RandomFiniteDouble(rng);
    e.cells = rng.NextU64();
    e.scanned = rng.NextU64();
    e.total = rng.NextU64();
    e.partial = rng.UniformInt(uint64_t{2}) == 0;
  }
  return entries;
}

TEST(ReplyFuzzTest, ResponseLinesRoundTripAcrossThe64BitRange) {
  Rng rng(0x5eed0001);
  for (int round = 0; round < kRoundTrips; ++round) {
    const serve::ServeResponse want = RandomResponse(rng);
    const std::string line = serve::FormatResponse(want);
    serve::ServeResponse got;
    std::string error;
    ASSERT_TRUE(serve::ParseResponseLine(line, &got, &error))
        << error << "\n" << line;
    ASSERT_EQ(got.id, want.id) << line;
    ASSERT_EQ(got.ok, want.ok) << line;
    if (!want.ok) {
      ASSERT_EQ(got.error, want.error) << line;
      continue;
    }
    ASSERT_EQ(got.op, want.op) << line;
    ASSERT_EQ(got.partial, want.partial) << line;
    ASSERT_EQ(got.scanned, want.scanned) << line;
    ASSERT_EQ(got.total, want.total) << line;
    ASSERT_EQ(got.neighbors.size(), want.neighbors.size()) << line;
    for (size_t i = 0; i < want.neighbors.size(); ++i) {
      ASSERT_EQ(got.neighbors[i].index, want.neighbors[i].index) << line;
      ASSERT_EQ(got.neighbors[i].label, want.neighbors[i].label) << line;
      ASSERT_TRUE(SameBits(got.neighbors[i].distance,
                           want.neighbors[i].distance))
          << line;
    }
    ASSERT_TRUE(SameBits(got.distance, want.distance)) << line;
    ASSERT_EQ(got.position, want.position) << line;
    ASSERT_EQ(got.shards_missing, want.shards_missing) << line;
  }
}

TEST(ReplyFuzzTest, TelemetryAndSlowlogRoundTripLosslessly) {
  Rng rng(0x5eed0002);
  for (int round = 0; round < kRoundTrips; ++round) {
    const serve::Telemetry want = RandomTelemetry(rng);
    const int64_t id = RandomInt64(rng);
    const std::string line = serve::FormatTelemetryReply(id, want);
    serve::Telemetry got;
    std::string error;
    ASSERT_TRUE(serve::ParseTelemetryReply(line, &got, &error)) << error;
    ASSERT_EQ(got.counters.values, want.counters.values);
    ASSERT_EQ(got.gauges.values, want.gauges.values);
    for (size_t h = 0; h < obs::kNumHistograms; ++h) {
      const obs::HistogramData& g = got.histograms.series[h];
      const obs::HistogramData& w = want.histograms.series[h];
      ASSERT_EQ(g.count, w.count);
      ASSERT_EQ(g.sum, w.sum);
      ASSERT_EQ(g.buckets, w.buckets);
    }
    ASSERT_EQ(got.cache.size, want.cache.size);
    ASSERT_EQ(got.cache.capacity, want.cache.capacity);
    ASSERT_EQ(got.cache.hits, want.cache.hits);
    ASSERT_EQ(got.cache.misses, want.cache.misses);
    ASSERT_EQ(got.cache.evictions, want.cache.evictions);
    ASSERT_EQ(got.slowlog_capacity, want.slowlog_capacity);
    ASSERT_EQ(got.slowlog_pending, want.slowlog_pending);
    ASSERT_EQ(got.shards, want.shards);
    ASSERT_EQ(got.datasets, want.datasets);

    const uint64_t capacity = rng.NextU64();
    const std::vector<serve::SlowQueryRecord> entries = RandomSlowlog(rng);
    const std::string slow_line =
        serve::FormatSlowlogReply(id, capacity, entries);
    uint64_t got_capacity = 0;
    std::vector<serve::SlowQueryRecord> got_entries;
    ASSERT_TRUE(serve::ParseSlowlogReply(slow_line, &got_capacity,
                                         &got_entries, &error))
        << error << "\n" << slow_line;
    ASSERT_EQ(got_capacity, capacity);
    ASSERT_EQ(got_entries.size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      ASSERT_EQ(got_entries[i].id, entries[i].id);
      ASSERT_EQ(got_entries[i].op, entries[i].op);
      ASSERT_EQ(got_entries[i].dataset, entries[i].dataset);
      ASSERT_EQ(got_entries[i].measure, entries[i].measure);
      ASSERT_TRUE(SameBits(got_entries[i].engine_us, entries[i].engine_us));
      ASSERT_TRUE(SameBits(got_entries[i].total_us, entries[i].total_us));
      ASSERT_EQ(got_entries[i].cells, entries[i].cells);
      ASSERT_EQ(got_entries[i].scanned, entries[i].scanned);
      ASSERT_EQ(got_entries[i].total, entries[i].total);
      ASSERT_EQ(got_entries[i].partial, entries[i].partial);
    }
  }
}

// One seeded mutation of a valid line: a byte flip, a truncation, or a
// value swapped for another type or an out-of-range number.
std::string Mutate(const std::string& line, Rng& rng) {
  static const char* const kSwaps[] = {
      R"("x")", "true", "null", "[]", "{}", "-1", "0.5", "-0", "1E3",
      "1e300", "-1e300", "18446744073709551615", "18446744073709551616",
      "-9223372036854775808", "-9223372036854775809", "[1,[2]]",
      R"({"index":-1})"};
  std::string out = line;
  if (out.empty()) return out;
  const size_t pos = rng.UniformInt(uint64_t{out.size()});
  switch (rng.UniformInt(uint64_t{3})) {
    case 0:
      out[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
      break;
    case 1:
      out.resize(pos);
      break;
    default: {
      // Replace the scalar value after the next ':' or ',' with a swap.
      const size_t start = out.find_first_of(":,", pos);
      if (start == std::string::npos) break;
      size_t end = out.find_first_of(",}]", start + 1);
      if (end == std::string::npos) end = out.size();
      out.replace(start + 1, end - start - 1,
                  kSwaps[rng.UniformInt(uint64_t{std::size(kSwaps)})]);
      break;
    }
  }
  return out;
}

TEST(ReplyFuzzTest, MutatedRepliesParseOrFailButNeverCrash) {
  Rng rng(0x5eed0003);
  serve::ServeResponse knn;
  knn.id = 4;
  knn.ok = true;
  knn.op = serve::QueryOp::kKnn;
  knn.scanned = knn.total = 15;
  knn.neighbors = {{3, 1, 0.25}, {9, -2, 1.5}, {14, 0, 2.75}};
  knn.shards_missing = {1};
  const std::vector<std::string> seeds = {
      serve::FormatResponse(knn),
      serve::FormatTelemetryReply(7, RandomTelemetry(rng)),
      serve::FormatSlowlogReply(8, 32, RandomSlowlog(rng))};

  serve::Telemetry merged;
  size_t accepted = 0;
  size_t rejected = 0;
  for (const std::string& seed : seeds) {
    for (int round = 0; round < kMutationsPerLine; ++round) {
      const std::string line = Mutate(seed, rng);
      std::string error;
      serve::ServeResponse response;
      serve::Telemetry telemetry;
      uint64_t capacity = 0;
      std::vector<serve::SlowQueryRecord> entries;
      const bool as_response =
          serve::ParseResponseLine(line, &response, &error);
      const bool as_telemetry =
          serve::ParseTelemetryReply(line, &telemetry, &error);
      const bool as_slowlog =
          serve::ParseSlowlogReply(line, &capacity, &entries, &error);
      if (as_response || as_telemetry || as_slowlog) {
        ++accepted;
      } else {
        ++rejected;
      }
      // Whatever parsed flows on, as it would in the router.
      if (as_response) serve::FormatResponse(response);
      if (as_telemetry) {
        merged.Merge(telemetry);
        serve::FormatStatsReply(0, merged);
        serve::FormatMetricsReply(0, merged);
      }
      if (as_slowlog) serve::FormatSlowlogReply(0, capacity, entries);
    }
  }
  // Both outcomes must be common, or the mutator is not exercising the
  // parsers' error paths (or their success paths).
  const size_t total = seeds.size() * kMutationsPerLine;
  EXPECT_GT(accepted, total / 20);
  EXPECT_GT(rejected, total / 20);
}

std::string SnapshotDirOnce() {
  static const std::string dir = [] {
    const std::string path = ::testing::TempDir() + "/reply_fuzz_snaps";
    std::filesystem::create_directories(path);
    serve::DatasetStore store(1);
    const auto stored =
        store.Register("d", gen::RandomWalkDataset(24, 32, 13), {4});
    std::string error;
    EXPECT_TRUE(serve::SaveSnapshot(*stored, path + "/d.wsnap", &error))
        << error;
    return path;
  }();
  return dir;
}

TEST(ReplyFuzzTest, CorruptSubScanReplyDegradesToPartial) {
  SupervisorOptions sup;
  sup.shards = 2;
  sup.worker_binary = WARP_GARBLING_WORKER_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  sup.ping_interval_ms = 0;
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;
  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });
  serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
  ASSERT_TRUE(conn.valid()) << error;

  const Dataset queries = gen::RandomWalkDataset(1, 32, 17);
  for (const char* op : {"1nn", "knn", "range"}) {
    SCOPED_TRACE(op);
    obs::JsonWriter writer;
    writer.BeginObject()
        .Key("id").Int(1)
        .Key("op").String(op)
        .Key("dataset").String("d")
        .Key("k").Uint(3)
        .Key("threshold").Double(1e9)
        .Key("query").BeginArray();
    for (double v : queries[0].values()) writer.Double(v);
    writer.EndArray().EndObject();
    ASSERT_TRUE(conn.WriteAll(writer.TakeOutput() + "\n"));
    std::string reply;
    ASSERT_TRUE(conn.ReadLine(&reply));
    EXPECT_NE(reply.find(R"("ok":true)"), std::string::npos) << reply;
    EXPECT_NE(reply.find(R"("partial":true)"), std::string::npos) << reply;
    EXPECT_NE(reply.find(R"("shards_missing":[1])"), std::string::npos)
        << reply;
    EXPECT_EQ(reply.find(R"("index":-1)"), std::string::npos) << reply;
    EXPECT_EQ(reply.find("18446744073709551615"), std::string::npos) << reply;
  }

  conn.Close();
  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace warp
