// Golden tests for the observability surface of the serve path: the
// stats / metrics / slowlog control ops and the per-request trace echo.
//
// Determinism discipline: wall-clock values (stage timings, engine
// times) are schema-checked only; everything else — key sets, counter
// and cache deltas, slowlog membership, gauge settle points, the
// trace-stripped response bytes — is pinned exactly. The trace-strip
// tests are the no-perturbation guarantee in testable form: a response
// with tracing on is byte-identical to one with tracing off once the
// trace object is removed, cold and from the cache.

#include "warp/serve/server.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/gen/random_walk.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/net.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {
namespace {

constexpr size_t kSeries = 20;
constexpr size_t kLength = 32;

// A running in-process server plus one connected client, raw-line level
// so byte-identity checks are possible.
class LiveServer {
 public:
  explicit LiveServer(size_t threads, size_t slowlog_capacity = 8) {
    ServerOptions options;
    options.threads = threads;
    options.cache_capacity = 64;
    options.slowlog_capacity = slowlog_capacity;
    options.band_fractions = {0.1};
    server_ = std::make_unique<Server>(std::move(options));
    server_->RegisterDataset("d", gen::RandomWalkDataset(kSeries, kLength, 3));
    std::string error;
    EXPECT_TRUE(server_->Start(&error)) << error;
    serve_thread_ = std::thread([this] { server_->Serve(); });
    conn_ = ConnectLoopback(server_->port(), &error);
    EXPECT_TRUE(conn_.valid()) << error;
  }

  ~LiveServer() {
    server_->RequestShutdown();
    serve_thread_.join();
  }

  // Sends `lines` as one pipelined write; returns the raw response lines.
  std::vector<std::string> RawRoundTrip(const std::vector<std::string>& lines) {
    std::string payload;
    for (const std::string& line : lines) payload += line + "\n";
    EXPECT_TRUE(conn_.WriteAll(payload));
    std::vector<std::string> responses;
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string line;
      if (!conn_.ReadLine(&line)) {
        ADD_FAILURE() << "connection closed after " << i << " responses";
        break;
      }
      responses.push_back(std::move(line));
    }
    return responses;
  }

  std::vector<JsonValue> RoundTrip(const std::vector<std::string>& lines) {
    std::vector<JsonValue> parsed;
    for (const std::string& line : RawRoundTrip(lines)) {
      JsonValue value;
      std::string error;
      EXPECT_TRUE(ParseJson(line, &value, &error)) << error << ": " << line;
      parsed.push_back(std::move(value));
    }
    return parsed;
  }

 private:
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  TcpConn conn_;
};

std::string OneNnLine(int64_t id, size_t seed, bool trace = false) {
  const std::vector<double> query =
      gen::RandomWalkDataset(1, kLength, static_cast<uint64_t>(seed))[0]
          .values();
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String("1nn")
      .Key("dataset").String("d");
  if (trace) writer.Key("trace").Bool(true);
  writer.Key("query").BeginArray();
  for (double v : query) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

// Removes the `,"trace":{...}` member from a raw response line. The
// trace object is flat (scalar members only) and emitted last, so the
// first closing brace after its opening ends it.
std::string StripTrace(const std::string& line) {
  const size_t at = line.find(",\"trace\":{");
  if (at == std::string::npos) return line;
  const size_t end = line.find('}', at);
  EXPECT_NE(end, std::string::npos);
  return line.substr(0, at) + line.substr(end + 1);
}

// Known activity: two distinct computed queries, then a duplicate on its
// own round trip so it hits the result cache (pipelined into the first
// batch it would be computed alongside the original instead). Every
// pinned expectation below derives from this: 2 misses, 1 hit, 2
// slowlog entries.
void RunKnownActivity(LiveServer& live) {
  std::vector<JsonValue> responses = live.RoundTrip({
      OneNnLine(1, 101),
      OneNnLine(2, 202),
  });
  ASSERT_EQ(responses.size(), 2u);
  for (const JsonValue& response : responses) {
    ASSERT_TRUE(response.BoolOr("ok", false))
        << response.StringOr("error", "");
  }
  responses = live.RoundTrip({OneNnLine(1, 101)});  // Cache hit.
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].BoolOr("ok", false));
}

TEST(StatsGoldenTest, StatsSchemaAndDeterministicFieldsArePinned) {
  LiveServer live(2);
  RunKnownActivity(live);
  const std::vector<JsonValue> responses =
      live.RoundTrip({R"({"id": 10, "op": "stats"})"});
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue& stats = responses[0];
  EXPECT_EQ(stats.NumberOr("id", -1), 10.0);
  ASSERT_TRUE(stats.BoolOr("ok", false));
  EXPECT_EQ(stats.StringOr("op", ""), "stats");
  EXPECT_TRUE(stats.BoolOr("profiling", false));

  // Counters: exactly the engine/shard/snapshot/admission/cluster
  // counters the op emits (the cluster trio reads zero on a plain
  // server but stays in the schema so router-merged stats keep the
  // same shape). The serve_cache_* registry counters must NOT appear —
  // the per-instance cache object below is the single source of truth
  // for cache behavior in this op.
  const JsonValue* counters = stats.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().size(), 11u);
  for (const char* key : {"serve_requests", "serve_batches",
                          "serve_batched_queries",
                          "serve_deadline_exceeded", "serve_shard_scans",
                          "serve_snapshot_saves", "serve_snapshot_loads",
                          "serve_shed", "cluster_scatters",
                          "cluster_worker_restarts",
                          "cluster_partial_replies"}) {
    EXPECT_NE(counters->Find(key), nullptr) << key;
  }
  EXPECT_EQ(counters->NumberOr("serve_shed", -1), 0.0);
  EXPECT_EQ(counters->NumberOr("cluster_scatters", -1), 0.0);
  EXPECT_EQ(counters->Find("serve_cache_hits"), nullptr);
  EXPECT_EQ(counters->Find("serve_cache_misses"), nullptr);
  EXPECT_EQ(counters->Find("serve_cache_evictions"), nullptr);

  // Shards: this server runs the default single-shard store.
  const JsonValue* shards = stats.Find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->NumberOr("count", -1), 1.0);

  // Cache: per-instance, so exact values are deterministic.
  const JsonValue* cache = stats.Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->NumberOr("size", -1), 2.0);
  EXPECT_EQ(cache->NumberOr("capacity", -1), 64.0);
  EXPECT_EQ(cache->NumberOr("hits", -1), 1.0);
  EXPECT_EQ(cache->NumberOr("misses", -1), 2.0);
  EXPECT_EQ(cache->NumberOr("evictions", -1), 0.0);

  // Gauges: settled values. The only open connection is this test's.
  const JsonValue* gauges = stats.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->AsObject().size(), obs::kNumGauges);
  EXPECT_EQ(gauges->NumberOr("serve_queue_depth", -1), 0.0);
  EXPECT_EQ(gauges->NumberOr("serve_inflight_batch", -1), 0.0);
  EXPECT_EQ(gauges->NumberOr("serve_open_connections", -1), 1.0);

  // Histograms: process-cumulative, so counts are schema-checked (>= the
  // activity just run), not pinned.
  const JsonValue* histograms = stats.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* latency = histograms->Find("serve_latency_1nn_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->NumberOr("count", 0), 3.0);
  for (const char* key : {"count", "sum", "mean", "p50", "p95", "p99",
                          "buckets"}) {
    EXPECT_NE(latency->Find(key), nullptr) << key;
  }
  const JsonValue* cells = histograms->Find("serve_cells_per_query");
  ASSERT_NE(cells, nullptr);
  EXPECT_GE(cells->NumberOr("count", 0), 2.0);  // Hits record no cells.

  // Slowlog: per-instance. The two computed queries are pending; the
  // cache hit is not.
  const JsonValue* slowlog = stats.Find("slowlog");
  ASSERT_NE(slowlog, nullptr);
  EXPECT_EQ(slowlog->NumberOr("capacity", -1), 8.0);
  EXPECT_EQ(slowlog->NumberOr("pending", -1), 2.0);

  const JsonValue* datasets = stats.Find("datasets");
  ASSERT_NE(datasets, nullptr);
  ASSERT_EQ(datasets->AsArray().size(), 1u);
  EXPECT_EQ(datasets->AsArray()[0].AsString(), "d");
}

TEST(StatsGoldenTest, MetricsOpEmitsWellFormedExposition) {
  LiveServer live(1);
  RunKnownActivity(live);
  const std::vector<JsonValue> responses =
      live.RoundTrip({R"({"id": 11, "op": "metrics"})"});
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue& metrics = responses[0];
  ASSERT_TRUE(metrics.BoolOr("ok", false));
  EXPECT_EQ(metrics.StringOr("op", ""), "metrics");
  EXPECT_EQ(metrics.StringOr("format", ""), "warp-metrics-v1");

  const std::string body = metrics.StringOr("body", "");
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body.rfind("# warp-metrics-v1\n", 0), 0u);
  // Counter, gauge, and histogram families all present with TYPE headers.
  EXPECT_NE(body.find("# TYPE warp_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(body.find("warp_serve_requests_total "), std::string::npos);
  EXPECT_NE(body.find("# TYPE warp_serve_open_connections gauge"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE warp_serve_latency_1nn_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("warp_serve_latency_1nn_us_bucket{le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(body.find("warp_serve_latency_1nn_us_count "), std::string::npos);
  // Per-instance extras: this server's cache saw exactly 1 hit / 2
  // misses, and its slowlog holds the 2 computed queries.
  EXPECT_NE(body.find("warp_serve_result_cache_hits_total 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("warp_serve_result_cache_misses_total 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("warp_serve_slowlog_pending 2\n"), std::string::npos);
}

TEST(StatsGoldenTest, SlowlogOpDrainsSortedByEngineTime) {
  LiveServer live(1);
  RunKnownActivity(live);
  const std::vector<JsonValue> responses = live.RoundTrip({
      R"({"id": 12, "op": "slowlog"})",
      R"({"id": 13, "op": "slowlog"})",
      R"({"id": 14, "op": "stats"})",
  });
  ASSERT_EQ(responses.size(), 3u);

  const JsonValue& drained = responses[0];
  ASSERT_TRUE(drained.BoolOr("ok", false));
  EXPECT_EQ(drained.StringOr("op", ""), "slowlog");
  EXPECT_EQ(drained.NumberOr("capacity", -1), 8.0);
  const JsonValue* entries = drained.Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->AsArray().size(), 2u);  // The computed pair, no hit.
  double previous_engine_us = -1.0;
  for (size_t i = 0; i < entries->AsArray().size(); ++i) {
    const JsonValue& entry = entries->AsArray()[i];
    EXPECT_EQ(entry.StringOr("op", ""), "1nn");
    EXPECT_EQ(entry.StringOr("dataset", ""), "d");
    EXPECT_EQ(entry.StringOr("measure", ""), "cdtw");
    EXPECT_GT(entry.NumberOr("engine_us", -1), 0.0);
    EXPECT_GE(entry.NumberOr("total_us", -1),
              entry.NumberOr("engine_us", -1));
    EXPECT_EQ(entry.NumberOr("total", 0), static_cast<double>(kSeries));
    EXPECT_GT(entry.NumberOr("cells", 0), 0.0);
    if (i > 0) {
      EXPECT_LE(entry.NumberOr("engine_us", 0), previous_engine_us);
    }
    previous_engine_us = entry.NumberOr("engine_us", 0);
  }

  // A drain empties the log; a pipelined stats confirms it.
  EXPECT_TRUE(responses[1].Find("entries")->AsArray().empty());
  EXPECT_EQ(responses[2].Find("slowlog")->NumberOr("pending", -1), 0.0);
}

TEST(StatsGoldenTest, TraceEchoFollowsTheContract) {
  LiveServer live(1);
  // Separate round trips so the repeat is a genuine cache hit.
  std::vector<JsonValue> responses =
      live.RoundTrip({OneNnLine(1, 303, /*trace=*/true)});
  ASSERT_EQ(responses.size(), 1u);

  const JsonValue* cold = responses[0].Find("trace");
  ASSERT_NE(cold, nullptr);
  EXPECT_FALSE(cold->BoolOr("cached", true));
  for (const char* key : {"parse_us", "cache_us", "queue_us", "engine_us",
                          "merge_us", "serialize_us", "cells"}) {
    ASSERT_NE(cold->Find(key), nullptr) << key;
    EXPECT_GE(cold->NumberOr(key, -1), 0.0) << key;
  }
  EXPECT_GT(cold->NumberOr("engine_us", 0), 0.0);
  EXPECT_GT(cold->NumberOr("cells", 0), 0.0);

  responses = live.RoundTrip({OneNnLine(2, 303, /*trace=*/true)});
  ASSERT_EQ(responses.size(), 1u);
  const JsonValue* hit = responses[0].Find("trace");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->BoolOr("cached", false));
  // A hit replays no stale timings: the cached trace was stripped at
  // insert, so engine time and cells are zero.
  EXPECT_EQ(hit->NumberOr("engine_us", -1), 0.0);
  EXPECT_EQ(hit->NumberOr("cells", -1), 0.0);

  // No trace key unless the request asked for one.
  responses = live.RoundTrip({OneNnLine(3, 303, /*trace=*/false)});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].Find("trace"), nullptr);
}

// The no-perturbation guarantee, wire-level: tracing changes the bytes
// of a response only by appending the trace object. Cold and cached,
// stripping it yields byte-identical lines to untraced requests.
TEST(StatsGoldenTest, TracedResponsesMatchUntracedOnceStripped) {
  LiveServer live(1);

  // Cold untraced, then the same request traced (a cache hit).
  const std::vector<std::string> first = live.RawRoundTrip({
      OneNnLine(1, 404, /*trace=*/false),
  });
  const std::vector<std::string> second = live.RawRoundTrip({
      OneNnLine(1, 404, /*trace=*/true),
  });
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(second[0], first[0]);  // The trace really was appended...
  EXPECT_EQ(StripTrace(second[0]), first[0]);  // ...and is the only delta.

  // Cold traced, then the same request untraced (a hit on the traced
  // insert): the stored answer must carry no trace residue.
  const std::vector<std::string> third = live.RawRoundTrip({
      OneNnLine(2, 505, /*trace=*/true),
  });
  const std::vector<std::string> fourth = live.RawRoundTrip({
      OneNnLine(2, 505, /*trace=*/false),
  });
  ASSERT_EQ(third.size(), 1u);
  ASSERT_EQ(fourth.size(), 1u);
  EXPECT_EQ(StripTrace(third[0]), fourth[0]);
  EXPECT_EQ(fourth[0].find("\"trace\""), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace warp
