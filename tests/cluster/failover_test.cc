// Fault-injection coverage for the cluster (docs/SERVING.md,
// "Multi-process cluster"): SIGKILL a shard worker mid-query-stream and
// assert the router (a) keeps answering scans with `partial:true` +
// `shards_missing` instead of hanging or crashing, (b) fails
// dist/subsequence queries whose owning shard is the dead one with a
// clear error, and (c) returns to answers bitwise-identical to the
// single-process golden once the supervisor restarts the worker. A
// SIGSTOPped (wedged) worker is caught by the liveness ping instead.

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/proc.h"
#include "warp/cluster/router.h"
#include "warp/common/stopwatch.h"
#include "warp/cluster/supervisor.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/server.h"
#include "warp/serve/snapshot.h"

namespace warp {
namespace cluster {
namespace {

constexpr size_t kShards = 3;
constexpr size_t kSeries = 36;
constexpr size_t kLength = 40;
constexpr uint64_t kSeed = 11;
// The snapshot is the first (and only) registration every loader makes,
// so it lands on epoch 1 everywhere — which pins the partition function
// used to pick per-shard victim indices below.
constexpr uint64_t kEpoch = 1;

std::string SnapshotDirOnce() {
  static const std::string dir = [] {
    const std::string path = ::testing::TempDir() + "/failover_snaps";
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

// The smallest global index owned by `shard` under the test partition.
size_t IndexOwnedBy(size_t shard) {
  for (size_t i = 0; i < kSeries; ++i) {
    if (serve::ShardRouter::Partition(i, kEpoch, kShards) == shard) return i;
  }
  ADD_FAILURE() << "no series lands on shard " << shard;
  return 0;
}

std::string ScanLine(int64_t id, const std::string& op,
                     const std::vector<double>& query) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String(op)
      .Key("dataset").String("d");
  if (op == "knn") writer.Key("k").Uint(4);
  if (op == "range") writer.Key("threshold").Double(55.0);
  writer.Key("query").BeginArray();
  for (double v : query) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

std::string DistLine(int64_t id, size_t index,
                     const std::vector<double>& query) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String("dist")
      .Key("dataset").String("d")
      .Key("index").Uint(index)
      .Key("query").BeginArray();
  for (double v : query) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
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

TEST(FailoverTest, KilledWorkerDegradesThenRecoversBitwise) {
  const Dataset queries = gen::RandomWalkDataset(1, kLength, 77);
  const std::vector<double> q = queries[0].values();
  const size_t victim_shard = 1;
  const size_t dead_index = IndexOwnedBy(victim_shard);
  const size_t live_index = IndexOwnedBy(2);

  const std::vector<std::string> lines = {
      ScanLine(1, "1nn", q),
      ScanLine(2, "knn", q),
      ScanLine(3, "range", q),
      DistLine(4, dead_index, q),
      DistLine(5, live_index, q),
  };

  // Single-process golden at the same shard count.
  std::vector<std::string> golden;
  {
    serve::ServerOptions options;
    options.shards = kShards;
    serve::Server server(std::move(options));
    std::string error;
    ASSERT_TRUE(server.LoadSnapshotDir(SnapshotDirOnce(), &error)) << error;
    ASSERT_TRUE(server.Start(&error)) << error;
    std::thread serve_thread([&server] { server.Serve(); });
    serve::TcpConn conn = serve::ConnectLoopback(server.port(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    golden = RoundTrip(conn, lines);
    conn.Close();
    server.RequestShutdown();
    serve_thread.join();
  }
  ASSERT_EQ(golden.size(), lines.size());

  SupervisorOptions sup;
  sup.shards = kShards;
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  // A long first-retry backoff keeps the degraded window open long
  // enough to observe deterministically; pings are off so the only
  // down-detection is the reap of our SIGKILL.
  sup.restart_backoff_ms = 1500;
  sup.ping_interval_ms = 0;
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;

  Router router(RouterOptions{}, &supervisor);
  ASSERT_TRUE(router.Start(&error)) << error;
  std::thread router_thread([&router] { router.Serve(); });
  serve::TcpConn conn = serve::ConnectLoopback(router.port(), &error);
  ASSERT_TRUE(conn.valid()) << error;

  // Healthy cluster answers == golden, byte for byte.
  {
    const std::vector<std::string> healthy = RoundTrip(conn, lines);
    ASSERT_EQ(healthy.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(healthy[i], golden[i]) << "healthy response " << i;
    }
  }

  // Kill the victim worker mid-stream and wait for the supervisor to
  // notice (reap) the death.
  const long victim_pid = supervisor.worker_pid(victim_shard);
  ASSERT_GT(victim_pid, 0);
  ASSERT_TRUE(SendSignal(victim_pid, SIGKILL));
  {
    Stopwatch waited;
    while (supervisor.Status(victim_shard).up &&
           waited.ElapsedMillis() < 5000) {
      SleepMillis(10);
    }
  }
  ASSERT_FALSE(supervisor.Status(victim_shard).up)
      << "supervisor never noticed the SIGKILL";

  // Degraded window: scans answer partial with the missing shard named;
  // a dist to a series owned by the dead shard fails fast; a dist to a
  // live shard's series still answers exactly the golden bytes.
  {
    const std::vector<std::string> degraded = RoundTrip(conn, lines);
    ASSERT_EQ(degraded.size(), lines.size());
    for (size_t i = 0; i < 3; ++i) {
      SCOPED_TRACE("degraded scan " + std::to_string(i));
      EXPECT_NE(degraded[i].find("\"ok\":true"), std::string::npos)
          << degraded[i];
      EXPECT_NE(degraded[i].find("\"partial\":true"), std::string::npos)
          << degraded[i];
      EXPECT_NE(degraded[i].find("\"shards_missing\":[1]"), std::string::npos)
          << degraded[i];
    }
    EXPECT_NE(degraded[3].find("\"ok\":false"), std::string::npos)
        << degraded[3];
    EXPECT_NE(degraded[3].find("shard 1 is down"), std::string::npos)
        << degraded[3];
    EXPECT_EQ(degraded[4], golden[4]) << "live-shard dist changed bytes";
  }

  // Recovery: wait for the restarted worker (generation bump), then the
  // full mix must again be bitwise-identical to the golden — including
  // the scans that were partial a moment ago (partial answers are never
  // cached).
  {
    Stopwatch waited;
    while (waited.ElapsedMillis() < 15000) {
      const WorkerStatus status = supervisor.Status(victim_shard);
      if (status.up && status.generation >= 2) break;
      SleepMillis(20);
    }
  }
  {
    const WorkerStatus status = supervisor.Status(victim_shard);
    ASSERT_TRUE(status.up) << "worker never restarted";
    ASSERT_GE(status.generation, 2u);
    ASSERT_GE(status.restarts, 1u);
  }
  {
    const std::vector<std::string> recovered = RoundTrip(conn, lines);
    ASSERT_EQ(recovered.size(), golden.size());
    for (size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(recovered[i], golden[i]) << "post-restart response " << i;
    }
  }

  conn.Close();
  router.RequestShutdown();
  router_thread.join();
  supervisor.Stop();
}

// A stopped worker still accepts connections, because the kernel
// completes them, but it never replies: no reap sees it, only the ping
// times out. No query is sent while it is stopped, since the router
// would wait out its gather timeout for the missing reply.
TEST(FailoverTest, WedgedWorkerIsReplacedByTheLivenessPing) {
  SupervisorOptions sup;
  sup.shards = kShards;
  sup.worker_binary = WARP_SERVE_PATH;
  sup.snapshot_dir = SnapshotDirOnce();
  sup.restart_backoff_ms = 50;
  sup.ping_interval_ms = 100;
  sup.ping_timeout_ms = 300;
  Supervisor supervisor(sup);
  std::string error;
  ASSERT_TRUE(supervisor.Start(&error)) << error;

  const size_t victim_shard = 0;
  const long wedged_pid = supervisor.worker_pid(victim_shard);
  ASSERT_GT(wedged_pid, 0);
  ASSERT_TRUE(SendSignal(wedged_pid, SIGSTOP));

  WorkerStatus status = supervisor.Status(victim_shard);
  const Stopwatch waited;
  while (!(status.up && status.generation >= 2 && status.restarts >= 1 &&
           status.pid != wedged_pid) &&
         waited.ElapsedMillis() < 10000) {
    SleepMillis(20);
    status = supervisor.Status(victim_shard);
  }
  EXPECT_TRUE(status.up) << "wedged worker never replaced";
  EXPECT_GE(status.generation, 2u);
  EXPECT_GE(status.restarts, 1u);
  EXPECT_NE(status.pid, wedged_pid);
  for (size_t shard = 0; shard < kShards; ++shard) {
    if (shard == victim_shard) continue;
    EXPECT_EQ(supervisor.Status(shard).generation, 1u) << "shard " << shard;
  }
  supervisor.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace warp
