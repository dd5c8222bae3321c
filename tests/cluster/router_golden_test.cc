// Router-vs-inprocess golden test: every answer the cluster router
// assembles from real worker processes must be BYTE-identical to the
// single-process `--shards=N` server — for all five query ops, at
// shards {2, 4} x threads {1, 4}, cold, from the workers' result caches,
// and under pipelined batch submission.
//
// This is the cross-process half of the determinism contract
// (docs/SERVING.md, "Multi-process cluster"): the in-process
// shard_golden_test proves shards are an execution detail within one
// process; this test proves the process boundary (FormatRequest /
// ParseResponseLine round trips, scatter stamps, shard-major gather,
// top-k re-merge) adds no observable difference either.

#include "warp/cluster/router.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/supervisor.h"
#include "warp/common/metrics.h"
#include "warp/common/stopwatch.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/server.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/wire.h"

namespace warp {
namespace cluster {
namespace {

constexpr size_t kSeries = 30;
constexpr size_t kLength = 48;
constexpr uint64_t kSeed = 3;

// Writes the dataset used by every server in this file as a one-snapshot
// directory (the workers' load medium) and returns the directory.
std::string SnapshotDirOnce() {
  static const std::string dir = [] {
    const std::string path = ::testing::TempDir() + "/router_golden_snaps";
    std::filesystem::create_directories(path);
    // Any shard count works: snapshots store the global order and every
    // loader re-shards at its own count.
    serve::DatasetStore store(1);
    const auto stored =
        store.Register("d", gen::RandomWalkDataset(kSeries, kLength, kSeed),
                       {5});
    std::string error;
    EXPECT_TRUE(
        serve::SaveSnapshot(*stored, path + "/d.wsnap", &error))
        << error;
    return path;
  }();
  return dir;
}

std::string QueryLine(int64_t id, const std::string& op,
                      const std::vector<double>& query, size_t k,
                      size_t index, double threshold) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String(op)
      .Key("dataset").String("d");
  if (op == "knn") writer.Key("k").Uint(k);
  if (op == "range") writer.Key("threshold").Double(threshold);
  if (op == "dist" || op == "subsequence") writer.Key("index").Uint(index);
  writer.Key("query").BeginArray();
  for (double v : query) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

// The five-op request mix every comparison uses.
std::vector<std::string> RequestMix() {
  const Dataset queries = gen::RandomWalkDataset(2, kLength, 71);
  const std::vector<double> q = queries[0].values();
  const std::vector<double> short_q(queries[1].values().begin(),
                                    queries[1].values().begin() + 16);
  return {
      QueryLine(1, "1nn", q, 0, 0, 0.0),
      QueryLine(2, "knn", q, 5, 0, 0.0),
      QueryLine(3, "range", q, 0, 0, 60.0),
      QueryLine(4, "dist", q, 0, 7, 0.0),
      QueryLine(5, "subsequence", short_q, 0, 3, 0.0),
  };
}

// Pipelined round trip over an existing connection: one write, one
// response line per request, raw bytes preserved.
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

// The single-process `--shards=N` reference answers.
std::vector<std::string> GoldenAnswers(size_t shards, size_t threads,
                                       const std::vector<std::string>& lines,
                                       size_t passes) {
  serve::ServerOptions options;
  options.shards = shards;
  options.threads = threads;
  options.cache_capacity = 64;
  serve::Server server(std::move(options));
  std::string error;
  EXPECT_TRUE(server.LoadSnapshotDir(SnapshotDirOnce(), &error)) << error;
  EXPECT_TRUE(server.Start(&error)) << error;
  std::thread serve_thread([&server] { server.Serve(); });
  serve::TcpConn conn = serve::ConnectLoopback(server.port(), &error);
  EXPECT_TRUE(conn.valid()) << error;
  std::vector<std::string> all;
  for (size_t pass = 0; pass < passes; ++pass) {
    const std::vector<std::string> responses = RoundTrip(conn, lines);
    all.insert(all.end(), responses.begin(), responses.end());
  }
  conn.Close();
  server.RequestShutdown();
  serve_thread.join();
  return all;
}

TEST(RouterGoldenTest, AnswersMatchSingleProcessBytewise) {
  const std::vector<std::string> lines = RequestMix();
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      // Two passes: pass 1 computes, pass 2 answers from the workers'
      // result caches — both must equal the single process's two passes.
      const std::vector<std::string> golden =
          GoldenAnswers(shards, threads, lines, /*passes=*/2);
      ASSERT_EQ(golden.size(), 2 * lines.size());

      SupervisorOptions sup;
      sup.shards = shards;
      sup.threads = threads;
      sup.cache_capacity = 64;
      sup.worker_binary = WARP_SERVE_PATH;
      sup.snapshot_dir = SnapshotDirOnce();
      Supervisor supervisor(sup);
      std::string error;
      ASSERT_TRUE(supervisor.Start(&error)) << error;

      Router router(RouterOptions{}, &supervisor);
      ASSERT_TRUE(router.Start(&error)) << error;
      std::thread router_thread([&router] { router.Serve(); });
      serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
      ASSERT_TRUE(conn.valid()) << error;

      std::vector<std::string> clustered;
      for (size_t pass = 0; pass < 2; ++pass) {
        const std::vector<std::string> responses = RoundTrip(conn, lines);
        clustered.insert(clustered.end(), responses.begin(), responses.end());
      }
      ASSERT_EQ(clustered.size(), golden.size());
      for (size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(clustered[i], golden[i]) << "response " << i;
      }

      conn.Close();
      router.RequestShutdown();
      router_thread.join();
      supervisor.Stop();
    }
  }
}

// One-at-a-time submission (separate write per request, fresh scatter per
// line) must agree with the pipelined batch answers above — batch
// boundaries are invisible in the bytes.
TEST(RouterGoldenTest, SingleSubmissionsMatchPipelinedBatch) {
  const std::vector<std::string> lines = RequestMix();
  const std::vector<std::string> golden =
      GoldenAnswers(/*shards=*/2, /*threads=*/1, lines, /*passes=*/1);

  SupervisorOptions sup;
  sup.shards = 2;
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;
  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });
  serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
  ASSERT_TRUE(conn.valid()) << error;

  for (size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> one = RoundTrip(conn, {lines[i]});
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], golden[i]) << "request " << i;
  }

  conn.Close();
  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

// A cluster over the golden snapshot with liveness pings off, so every
// connection a worker sees is the router's or the test's.
SupervisorOptions QuietCluster(size_t shards, size_t threads) {
  SupervisorOptions sup;
  sup.shards = shards;
  sup.threads = threads;
  sup.cache_capacity = 64;
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  sup.ping_interval_ms = 0;
  return sup;
}

// One worker's `serve_open_connections` gauge, read over a connection of
// its own, which the gauge counts; -1 when the reply does not say.
double WorkerOpenConnections(int port) {
  std::string error;
  serve::TcpConn conn = serve::ConnectLoopback(port, &error);
  EXPECT_TRUE(conn.valid()) << error;
  const std::vector<std::string> replies =
      RoundTrip(conn, {R"({"id":1,"op":"stats"})"});
  serve::JsonValue stats;
  if (replies.size() != 1 || !serve::ParseJson(replies[0], &stats, &error)) {
    return -1.0;
  }
  const serve::JsonValue* gauges = stats.Find("gauges");
  return gauges == nullptr ? -1.0
                           : gauges->NumberOr("serve_open_connections", -1.0);
}

// More client connections than the router has worker link sets, each
// pipelining the mix pass after pass, all at once: overlapping batches
// share the workers but not their answers, and the pool keeps each
// worker's connections from the router at the cap.
TEST(RouterGoldenTest, ConcurrentClientsMatchSingleProcess) {
  constexpr size_t kClients = kMaxWorkerLinkSets + 2;
  constexpr size_t kPasses = 4;
  const std::vector<std::string> lines = RequestMix();
  for (const size_t shards : {size_t{2}, size_t{4}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      // Answers do not depend on the cache, so one pass is every pass.
      const std::vector<std::string> golden =
          GoldenAnswers(shards, threads, lines, /*passes=*/1);
      ASSERT_EQ(golden.size(), lines.size());

      Supervisor supervisor(QuietCluster(shards, threads));
      std::string error;
      ASSERT_TRUE(supervisor.Start(&error)) << error;
      Router router(RouterOptions{}, &supervisor);
      ASSERT_TRUE(router.Start(&error)) << error;
      std::thread router_thread([&router] { router.Serve(); });

      std::latch start(kClients);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          std::string conn_error;
          serve::TcpConn conn =
              serve::ConnectLoopback(router.port(), &conn_error);
          start.arrive_and_wait();
          ASSERT_TRUE(conn.valid()) << conn_error;
          for (size_t pass = 0; pass < kPasses; ++pass) {
            const std::vector<std::string> responses = RoundTrip(conn, lines);
            ASSERT_EQ(responses.size(), golden.size());
            for (size_t i = 0; i < golden.size(); ++i) {
              EXPECT_EQ(responses[i], golden[i])
                  << "client " << c << " pass " << pass << " response " << i;
            }
          }
        });
      }
      for (std::thread& client : clients) client.join();

      for (size_t shard = 0; shard < shards; ++shard) {
        // At least the reading connection itself; at most one per link
        // set besides it.
        const double open =
            WorkerOpenConnections(supervisor.Status(shard).port);
        EXPECT_GE(open, 1.0) << "shard " << shard;
        EXPECT_LE(open, static_cast<double>(kMaxWorkerLinkSets + 1))
            << "shard " << shard;
      }

      router.RequestShutdown();
      router_thread.join();
      supervisor.Stop();
    }
  }
}

// Loads racing query batches. A batch can plan against the epoch a load
// is retiring, and a worker refuses such a sub-scan as an epoch mismatch;
// the router then re-plans the query once against fresh dataset info. So
// every answer is golden, or, when another load overtakes the retry too,
// the workers' "epoch mismatch" error, and never a partial answer. No
// load waits long behind the queries, and once the loads stop the mix is
// golden again.
TEST(RouterGoldenTest, LoadsRacingQueriesAnswerGoldenOrEpochMismatch) {
  constexpr size_t kMinLoads = 10;
  constexpr size_t kMaxLoads = 400;
  constexpr double kLoadBoundMs = 5000.0;
  const std::vector<std::string> lines = RequestMix();
  const std::vector<std::string> golden =
      GoldenAnswers(/*shards=*/2, /*threads=*/1, lines, /*passes=*/1);

  Supervisor supervisor(QuietCluster(/*shards=*/2, /*threads=*/1));
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;
  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });

  obs::JsonWriter load;
  load.BeginObject()
      .Key("id").Int(100)
      .Key("op").String("load_snapshot")
      .Key("path").String(SnapshotDirOnce() + "/d.wsnap")
      .EndObject();
  const std::string load_line = load.TakeOutput();

  // A scatter is counted as its query is planned, and a query is counted
  // as sent before its batch is written, so more scatters than queries
  // sent means some query was re-planned: the retry ran.
  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  std::atomic<uint64_t> queries_sent{0};
  const auto retries = [&] {
    const uint64_t scatters = obs::CountersSince(before).Get(
        obs::Counter::kClusterScatters);
    const uint64_t sent = queries_sent.load();
    return scatters > sent ? scatters - sent : 0;
  };

  std::atomic<bool> loading{true};
  std::thread loader([&] {
    std::string conn_error;
    serve::TcpConn conn = serve::ConnectLoopback(router.port(), &conn_error);
    EXPECT_TRUE(conn.valid()) << conn_error;
    for (size_t i = 0; conn.valid() && i < kMaxLoads; ++i) {
      if (i >= kMinLoads && retries() > 0) break;
      const Stopwatch watch;
      const std::vector<std::string> reply = RoundTrip(conn, {load_line});
      EXPECT_LT(watch.ElapsedMillis(), kLoadBoundMs) << "load " << i;
      if (reply.size() != 1) break;
      EXPECT_NE(reply[0].find(R"("ok":true)"), std::string::npos)
          << "load " << i << ": " << reply[0];
    }
    loading.store(false);
  });

  serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
  EXPECT_TRUE(conn.valid()) << error;
  size_t mismatches = 0;
  while (conn.valid() && loading.load()) {
    queries_sent += lines.size();
    const std::vector<std::string> responses = RoundTrip(conn, lines);
    if (responses.size() != lines.size()) break;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (responses[i] == golden[i]) continue;
      ++mismatches;
      EXPECT_NE(responses[i].find(R"("ok":false,"error":"epoch mismatch)"),
                std::string::npos)
          << "response " << i << ": " << responses[i];
    }
  }
  loader.join();
  EXPECT_GT(retries(), 0u) << "no query was re-planned; the race never ran";

  queries_sent += lines.size();
  const std::vector<std::string> settled = RoundTrip(conn, lines);
  EXPECT_EQ(settled, golden);
  RecordProperty("epoch_mismatch_errors", static_cast<int>(mismatches));
  RecordProperty("retried_queries", static_cast<int>(retries()));

  conn.Close();
  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace warp
