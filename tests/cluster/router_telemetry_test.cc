// Router telemetry parity: a 2-shard cluster's `stats`, `metrics` and
// `slowlog` must read like a plain `--shards=2` server's after the same
// query mix — same keys in the same order at every level, counters and
// histograms that add up across the process boundary, and the same
// warp-metrics-v1 sample names even with every worker down
// (docs/SERVING.md, "Multi-process cluster", Control ops).
//
// The plain server runs as its own warp_serve process and the router in
// this one, so this process's registries hold exactly the router's own
// readings: the cluster's counters must equal them plus each worker's,
// read directly from the worker ports with the `telemetry` op.

#include "warp/cluster/router.h"

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/proc.h"
#include "warp/cluster/supervisor.h"
#include "warp/cluster/worker.h"
#include "warp/common/metrics.h"
#include "warp/common/stopwatch.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/telemetry.h"
#include "warp/serve/wire.h"

namespace warp {
namespace cluster {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kSeries = 30;
constexpr size_t kLength = 48;
constexpr uint64_t kSeed = 5;

std::string SnapshotDirOnce() {
  static const std::string dir = [] {
    const std::string path = ::testing::TempDir() + "/router_telemetry_snaps";
    std::filesystem::create_directories(path);
    serve::DatasetStore store(1);
    const auto stored = store.Register(
        "d", gen::RandomWalkDataset(kSeries, kLength, kSeed), {5});
    std::string error;
    EXPECT_TRUE(serve::SaveSnapshot(*stored, path + "/d.wsnap", &error))
        << error;
    return path;
  }();
  return dir;
}

std::string QueryLine(int64_t id, const std::string& op,
                      const std::vector<double>& query) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String(op)
      .Key("dataset").String("d");
  if (op == "knn") writer.Key("k").Uint(4);
  if (op == "range") writer.Key("threshold").Double(60.0);
  if (op == "dist" || op == "subsequence") writer.Key("index").Uint(3);
  writer.Key("query").BeginArray();
  for (double v : query) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

// Every op, twice with different queries, so both workers record
// computed queries in every histogram the mix touches.
std::vector<std::string> QueryMix() {
  const Dataset queries = gen::RandomWalkDataset(2, kLength, 91);
  std::vector<std::string> lines;
  int64_t id = 1;
  for (size_t s = 0; s < queries.size(); ++s) {
    const std::vector<double>& q = queries[s].values();
    const std::vector<double> short_q(q.begin(), q.begin() + 16);
    for (const char* op : {"1nn", "knn", "range", "dist"}) {
      lines.push_back(QueryLine(id++, op, q));
    }
    lines.push_back(QueryLine(id++, "subsequence", short_q));
  }
  return lines;
}

std::vector<std::string> RoundTrip(serve::TcpConn& conn,
                                   const std::vector<std::string>& lines) {
  std::string payload;
  for (const std::string& line : lines) payload += line + "\n";
  EXPECT_TRUE(conn.WriteAll(payload));
  std::vector<std::string> responses;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string line;
    if (!conn.ReadLine(&line)) {
      ADD_FAILURE() << "connection closed after " << i << " responses";
      break;
    }
    responses.push_back(std::move(line));
  }
  return responses;
}

std::string Control(serve::TcpConn& conn, const std::string& op) {
  const std::vector<std::string> reply =
      RoundTrip(conn, {R"({"id": 7, "op": ")" + op + R"("})"});
  return reply.empty() ? std::string() : reply[0];
}

// The document's shape with every value blanked: numbers read 0 and the
// sparse bucket lists (whose length depends on timings) read []. Two
// documents with equal skeletons have the same keys in the same order at
// every level.
std::string Skeleton(const std::string& json) {
  static const std::regex kBuckets(R"("buckets":\[[^\]]*\])");
  static const std::regex kNumbers(R"(([:\[,])-?[0-9][0-9.eE+-]*)");
  return std::regex_replace(
      std::regex_replace(json, kBuckets, "\"buckets\":[]"), kNumbers, "$010");
}

// The warp-metrics-v1 sample names of a `metrics` reply, bucket labels
// stripped.
std::set<std::string> SampleNames(const std::string& reply) {
  serve::JsonValue root;
  std::string error;
  EXPECT_TRUE(serve::ParseJson(reply, &root, &error)) << error;
  static const std::regex kLabel(R"(\{le="[^"]*"\})");
  std::set<std::string> names;
  const std::string body = root.StringOr("body", "");
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    names.insert(std::regex_replace(line.substr(0, line.rfind(' ')), kLabel,
                                    ""));
  }
  return names;
}

// A plain `warp_serve --shards=2` process over the same snapshot.
class PlainServer {
 public:
  PlainServer() {
    std::string error;
    EXPECT_TRUE(proc_.Spawn({WARP_SERVE_PATH, "--port=0", "--shards=2",
                             "--cache=64",
                             "--snapshot-dir=" + SnapshotDirOnce()},
                            &error))
        << error;
    std::string line;
    EXPECT_TRUE(proc_.WaitForLinePrefix("ready port=", 30000, &line) &&
                ParseReadyPort(line, &port_))
        << "plain server never became ready";
  }
  ~PlainServer() {
    proc_.Kill(SIGKILL);
    proc_.Reap();
  }
  int port() const { return port_; }

 private:
  ChildProcess proc_;
  int port_ = 0;
};

serve::Telemetry WorkerTelemetry(const Supervisor& supervisor, size_t shard) {
  std::string error;
  serve::TcpConn conn = serve::ConnectLoopback(
      supervisor.Status(shard).port, &error);
  EXPECT_TRUE(conn.valid()) << error;
  serve::Telemetry telemetry;
  EXPECT_TRUE(serve::ParseTelemetryReply(Control(conn, "telemetry"),
                                         &telemetry, &error))
      << error;
  return telemetry;
}

// (le -> n) of a rendered stats histogram, or of raw buckets.
std::map<uint64_t, uint64_t> BucketsOf(const serve::JsonValue& histogram) {
  std::map<uint64_t, uint64_t> buckets;
  for (const serve::JsonValue& entry : histogram.Find("buckets")->AsArray()) {
    uint64_t le = 0;
    uint64_t n = 0;
    EXPECT_TRUE(serve::ReadInteger(*entry.Find("le"), &le));
    EXPECT_TRUE(serve::ReadInteger(*entry.Find("n"), &n));
    buckets[le] = n;
  }
  return buckets;
}
std::map<uint64_t, uint64_t> BucketsOf(const obs::HistogramData& data) {
  std::map<uint64_t, uint64_t> buckets;
  for (size_t b = 0; b < obs::kHistogramBuckets; ++b) {
    if (data.buckets[b] != 0) {
      buckets[obs::HistogramBucketBound(b)] = data.buckets[b];
    }
  }
  return buckets;
}

TEST(RouterTelemetryTest, ClusterDocumentsMatchThePlainServer) {
  const std::vector<std::string> mix = QueryMix();
  // Write the snapshot, then zero this process's registries: from here on
  // they hold only the router's own readings.
  SnapshotDirOnce();
  obs::ResetCounters();
  obs::ResetHistograms();

  std::string plain_stats;
  std::set<std::string> plain_names;
  {
    PlainServer plain;
    std::string error;
    serve::TcpConn conn = serve::ConnectLoopback(plain.port(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    RoundTrip(conn, mix);
    plain_stats = Control(conn, "stats");
    plain_names = SampleNames(Control(conn, "metrics"));
  }
  ASSERT_FALSE(plain_names.empty());

  SupervisorOptions sup;
  sup.shards = kShards;
  sup.cache_capacity = 64;
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  // Killed workers stay down for the rest of the test, and no liveness
  // pings run behind the checks.
  sup.restart_backoff_ms = 600000;
  sup.restart_backoff_max_ms = 600000;
  sup.ping_interval_ms = 0;
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;
  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });
  serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
  ASSERT_TRUE(conn.valid()) << error;
  RoundTrip(conn, mix);

  // stats: the plain server's keys, in its order, at every level. The
  // router adds exactly one histogram of its own.
  const std::string cluster_stats = Control(conn, "stats");
  const obs::MetricsSnapshot own = obs::SnapshotCounters();
  {
    static const std::regex kGather(R"(,"router_gather_us":\{[^{}]*\})");
    const std::string skeleton = Skeleton(cluster_stats);
    EXPECT_NE(skeleton.find("\"router_gather_us\""), std::string::npos);
    EXPECT_EQ(std::regex_replace(skeleton, kGather, ""),
              Skeleton(plain_stats));
  }

  // Counters: the router's own plus each worker's. Histograms: the
  // engine-side ones are the bucket-wise sum of the workers'.
  serve::Telemetry workers;
  for (size_t shard = 0; shard < kShards; ++shard) {
    workers.Merge(WorkerTelemetry(supervisor, shard));
  }
  serve::JsonValue stats;
  ASSERT_TRUE(serve::ParseJson(cluster_stats, &stats, &error)) << error;
  const serve::JsonValue* counters = stats.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_FALSE(counters->AsObject().empty());
  for (const auto& [name, value] : counters->AsObject()) {
    SCOPED_TRACE(name);
    size_t c = 0;
    while (c < obs::kNumCounters &&
           name != obs::CounterName(static_cast<obs::Counter>(c))) {
      ++c;
    }
    ASSERT_LT(c, obs::kNumCounters);
    uint64_t merged = 0;
    ASSERT_TRUE(serve::ReadInteger(value, &merged));
    EXPECT_EQ(merged, own.values[c] + workers.counters.values[c]);
  }
  EXPECT_GT(workers.counters.Get(obs::Counter::kServeRequests), 0u);
  for (const obs::Histogram h : {obs::Histogram::kServeCellsPerQuery,
                                 obs::Histogram::kServeLatency1nn}) {
    SCOPED_TRACE(obs::HistogramName(h));
    const serve::JsonValue* histogram =
        stats.Find("histograms")->Find(obs::HistogramName(h));
    const obs::HistogramData& expected = workers.histograms.Get(h);
    // stats lists only non-empty histograms.
    ASSERT_NE(histogram, nullptr);
    ASSERT_GT(expected.count, 0u);
    EXPECT_EQ(histogram->NumberOr("count", -1),
              static_cast<double>(expected.count));
    EXPECT_EQ(histogram->NumberOr("sum", -1),
              static_cast<double>(expected.sum));
    EXPECT_EQ(BucketsOf(*histogram), BucketsOf(expected));
  }

  // metrics: exactly the plain server's sample names.
  EXPECT_EQ(SampleNames(Control(conn, "metrics")), plain_names);

  // slowlog: one drain sorted slowest-first, then empty.
  {
    uint64_t capacity = 0;
    std::vector<serve::SlowQueryRecord> entries;
    ASSERT_TRUE(serve::ParseSlowlogReply(Control(conn, "slowlog"), &capacity,
                                         &entries, &error))
        << error;
    EXPECT_GT(capacity, 0u);
    EXPECT_FALSE(entries.empty());
    for (size_t i = 1; i < entries.size(); ++i) {
      EXPECT_GE(entries[i - 1].engine_us, entries[i].engine_us) << i;
    }
    ASSERT_TRUE(serve::ParseSlowlogReply(Control(conn, "slowlog"), &capacity,
                                         &entries, &error))
        << error;
    EXPECT_TRUE(entries.empty());
  }

  // Every worker down: the documents keep the plain server's schema.
  for (size_t shard = 0; shard < kShards; ++shard) {
    ASSERT_TRUE(SendSignal(supervisor.worker_pid(shard), SIGKILL));
  }
  for (size_t shard = 0; shard < kShards; ++shard) {
    Stopwatch waited;
    while (supervisor.Status(shard).up && waited.ElapsedMillis() < 5000) {
      SleepMillis(10);
    }
    ASSERT_FALSE(supervisor.Status(shard).up) << "shard " << shard;
  }
  EXPECT_EQ(SampleNames(Control(conn, "metrics")), plain_names);

  conn.Close();
  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace warp
