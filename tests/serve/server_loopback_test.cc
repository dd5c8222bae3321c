// End-to-end loopback golden test: a query's answer over the wire must be
// bitwise-identical to a direct library call — at 1 and 4 worker threads,
// cold and from the result cache — plus control-op and shutdown behavior.

#include "warp/serve/server.h"

#include <chrono>
#include <csignal>
#include <filesystem>
#include <future>
#include <iterator>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/cluster/proc.h"
#include "warp/cluster/worker.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/core/measure.h"
#include "warp/gen/random_walk.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/net.h"
#include "warp/serve/wire.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace serve {
namespace {

constexpr size_t kSeries = 30;
constexpr size_t kLength = 48;

// A running in-process server plus one connected client.
class LiveServer {
 public:
  explicit LiveServer(size_t threads,
                      std::vector<double> band_fractions = {0.1}) {
    ServerOptions options;
    options.threads = threads;
    options.cache_capacity = 64;
    options.band_fractions = std::move(band_fractions);
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

  // Sends `lines` as one pipelined write and reads one response per line.
  std::vector<JsonValue> RoundTrip(const std::vector<std::string>& lines) {
    std::string payload;
    for (const std::string& line : lines) payload += line + "\n";
    EXPECT_TRUE(conn_.WriteAll(payload));
    std::vector<JsonValue> responses;
    for (size_t i = 0; i < lines.size(); ++i) {
      std::string line;
      if (!conn_.ReadLine(&line)) {
        ADD_FAILURE() << "connection closed after " << i << " responses";
        break;
      }
      JsonValue value;
      std::string error;
      EXPECT_TRUE(ParseJson(line, &value, &error)) << error << ": " << line;
      responses.push_back(std::move(value));
    }
    return responses;
  }

  Server& server() { return *server_; }

 private:
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
  TcpConn conn_;
};

std::string OneNnLine(int64_t id, const std::vector<double>& query) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("op").String("1nn")
      .Key("dataset").String("d")
      .Key("query").BeginArray();
  for (double v : query) writer.Double(v);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

// The acceptance criterion: the wire answer equals the direct library
// computation bit for bit, cold and cached, at 1 and 4 threads.
TEST(ServerLoopbackTest, GoldenRoundTripMatchesDirectLibraryCall) {
  const Dataset queries = gen::RandomWalkDataset(4, kLength, 71);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    LiveServer live(threads);

    // Direct library reference over the server's own stored snapshot.
    const auto snapshot = live.server().store().Get("d");
    ASSERT_NE(snapshot, nullptr);
    const SeriesMeasure measure = MakeMeasure("cdtw", MeasureParams{});
    const auto reference = [&](const std::vector<double>& query) {
      const std::vector<double> z = ZNormalized(query);
      size_t best = 0;
      double best_distance = measure(z, snapshot->SeriesAt(0).view());
      for (size_t i = 1; i < snapshot->size(); ++i) {
        const double d = measure(z, snapshot->SeriesAt(i).view());
        if (d < best_distance) {
          best = i;
          best_distance = d;
        }
      }
      return std::pair<size_t, double>(best, best_distance);
    };

    std::vector<std::string> lines;
    for (size_t q = 0; q < queries.size(); ++q) {
      lines.push_back(OneNnLine(static_cast<int64_t>(q),
                                queries[q].values()));
    }
    // Cold pass, then an identical pass answered from the result cache.
    for (const char* pass : {"cold", "cached"}) {
      SCOPED_TRACE(pass);
      const std::vector<JsonValue> responses = live.RoundTrip(lines);
      ASSERT_EQ(responses.size(), queries.size());
      for (size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        const JsonValue& response = responses[q];
        EXPECT_EQ(response.NumberOr("id", -1), static_cast<double>(q));
        ASSERT_TRUE(response.BoolOr("ok", false))
            << response.StringOr("error", "");
        const JsonValue* neighbors = response.Find("neighbors");
        ASSERT_NE(neighbors, nullptr);
        ASSERT_EQ(neighbors->AsArray().size(), 1u);
        const auto [index, distance] = reference(queries[q].values());
        EXPECT_EQ(neighbors->AsArray()[0].NumberOr("index", -1),
                  static_cast<double>(index));
        // Bitwise: JsonWriter emits shortest-round-trip doubles and the
        // parser reads them back with strtod.
        EXPECT_EQ(neighbors->AsArray()[0].NumberOr("distance", -1), distance);
      }
    }
  }
}

TEST(ServerLoopbackTest, ControlOpsAnswerInline) {
  LiveServer live(1, ServerOptions{}.band_fractions);
  const std::vector<JsonValue> responses = live.RoundTrip({
      R"({"id": 1, "op": "ping"})",
      R"({"id": 2, "op": "info", "dataset": "d"})",
      R"({"id": 3, "op": "info", "dataset": "missing"})",
      R"({"id": 4, "op": "stats"})",
  });
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].BoolOr("ok", false));
  EXPECT_TRUE(responses[1].BoolOr("ok", false));
  EXPECT_EQ(responses[1].NumberOr("size", -1),
            static_cast<double>(kSeries));
  EXPECT_EQ(responses[1].NumberOr("length", -1),
            static_cast<double>(kLength));
  // The default fractions are indexed at exactly the bands a query's
  // window resolves to, or the cascade would find no envelope for them.
  const JsonValue* bands = responses[1].Find("bands");
  ASSERT_NE(bands, nullptr);
  ASSERT_EQ(bands->AsArray().size(), 2u);
  EXPECT_EQ(bands->AsArray()[0].AsNumber(),
            static_cast<double>(BandFromFraction(0.05, kLength)));
  EXPECT_EQ(bands->AsArray()[1].AsNumber(),
            static_cast<double>(BandFromFraction(0.1, kLength)));
  EXPECT_FALSE(responses[2].BoolOr("ok", true));
  EXPECT_TRUE(responses[3].BoolOr("ok", false));
  EXPECT_NE(responses[3].Find("counters"), nullptr);
}

// Pipelined queries followed by `stats` on the same connection: the
// stats answer must reflect the queries before it (strict in-order
// semantics), including the cache hit from a duplicated query.
TEST(ServerLoopbackTest, PipelinedStatsSeesPrecedingQueries) {
  LiveServer live(2);
  const std::vector<double> query =
      gen::RandomWalkDataset(1, kLength, 5)[0].values();
  const std::vector<JsonValue> cold = live.RoundTrip({OneNnLine(1, query)});
  ASSERT_EQ(cold.size(), 1u);
  ASSERT_TRUE(cold[0].BoolOr("ok", false));

  // The duplicate arrives after the first answer is cached; the stats op
  // pipelined behind it must observe its hit (strict in-order semantics).
  const std::vector<JsonValue> responses = live.RoundTrip({
      OneNnLine(2, query),
      R"({"id": 3, "op": "stats"})",
  });
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].BoolOr("ok", false));
  const double d1 =
      cold[0].Find("neighbors")->AsArray()[0].NumberOr("distance", -1);
  const double d2 =
      responses[0].Find("neighbors")->AsArray()[0].NumberOr("distance", -2);
  EXPECT_EQ(d1, d2);  // The cache hit is bitwise-identical.

  const JsonValue* cache = responses[1].Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->NumberOr("hits", 0), 1.0);
}

TEST(ServerLoopbackTest, MalformedLinesGetErrorResponses) {
  LiveServer live(1);
  const std::vector<JsonValue> responses = live.RoundTrip({
      "this is not json",
      R"({"id": 9, "op": "1nn", "dataset": "nope", "query": [1.0, 2.0]})",
  });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].BoolOr("ok", true));
  EXPECT_FALSE(responses[1].BoolOr("ok", true));
  EXPECT_EQ(responses[1].NumberOr("id", -1), 9.0);
  EXPECT_NE(responses[1].StringOr("error", "").find("unknown dataset"),
            std::string::npos);
}

// Inputs a measure's kernel would WARP_CHECK (a query length a lock-step
// measure cannot compare, a negative knob) are refused by name; the
// server answers each line and keeps serving.
TEST(ServerLoopbackTest, MeasureInputErrorsAreRepliesNotAborts) {
  LiveServer live(1);
  const std::vector<JsonValue> responses = live.RoundTrip({
      R"({"id": 1, "op": "1nn", "dataset": "d", "measure": "ed", )"
      R"("query": [0, 1, 2, 3, 4, 0, 1]})",
      R"({"id": 2, "op": "1nn", "dataset": "d", "measure": "lcss", )"
      R"("epsilon": -1, "query": [0, 1, 2]})",
      R"({"id": 3, "op": "ping"})",
  });
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].BoolOr("ok", true));
  EXPECT_EQ(responses[0].StringOr("error", ""),
            "measure ed requires equal lengths, got 7 and 48");
  EXPECT_FALSE(responses[1].BoolOr("ok", true));
  EXPECT_EQ(responses[1].StringOr("error", ""),
            "measure lcss requires epsilon >= 0");
  EXPECT_TRUE(responses[2].BoolOr("ok", false));
}

// Descriptors this process holds open (Linux); -1 elsewhere.
long OpenDescriptors() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/fd", error);
  if (error) return -1;
  return std::distance(it, std::filesystem::directory_iterator());
}

// A finished connection gives back its descriptor and thread: 200
// sequential connect -> ping -> close cycles leave the server's open
// descriptors where they started, not one higher per connection.
TEST(ServerLoopbackTest, FinishedConnectionsReleaseTheirDescriptors) {
  LiveServer live(1);
  const long before = OpenDescriptors();
  if (before < 0) GTEST_SKIP() << "no /proc/self/fd on this platform";
  for (int i = 0; i < 200; ++i) {
    std::string error;
    TcpConn conn = ConnectLoopback(live.server().port(), &error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(conn.WriteAll(R"({"id": 1, "op": "ping"})" "\n"));
    std::string line;
    ASSERT_TRUE(conn.ReadLine(&line)) << "connection " << i;
  }
  long open = OpenDescriptors();
  for (int waited_ms = 0; open > before + 2 && waited_ms < 2000;
       waited_ms += 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    open = OpenDescriptors();
  }
  EXPECT_LE(open, before + 2);
}

// A connection flood under a low descriptor limit makes accept fail with
// EMFILE. The server must back off and serve again once the flood closes,
// not read the failure as a closed listener and exit 0. The server runs
// as a child under `ulimit -n 24`, so this process keeps its own limit.
TEST(ServerLoopbackTest, DescriptorExhaustionDoesNotEndTheAcceptLoop) {
#ifdef WARP_SANITIZE_UNDEFINED
  GTEST_SKIP() << "UBSan's vptr check needs a free descriptor (it probes "
                  "memory through a pipe) and misfires at EMFILE";
#endif
  cluster::ChildProcess child;
  std::string error;
  ASSERT_TRUE(child.Spawn({"/bin/sh", "-c",
                           std::string("ulimit -n 24; exec '") +
                               WARP_SERVE_PATH + "' --gen=d=20,32 --port=0"},
                          &error))
      << error;
  std::string line;
  int port = 0;
  ASSERT_TRUE(child.WaitForLinePrefix("ready port=", 10000, &line));
  ASSERT_TRUE(cluster::ParseReadyPort(line, &port)) << line;
  {
    std::vector<TcpConn> flood;
    for (int i = 0; i < 40; ++i) {
      flood.push_back(ConnectLoopbackTimeout(port, 1000, &error));
    }
    cluster::SleepMillis(300);  // Long enough for accept to hit EMFILE.
  }
  // The closed connections are reaped and the backlog drained before a
  // fresh one is accepted, so give the ping a few tries.
  bool answered = false;
  for (int attempt = 0; attempt < 30 && !answered; ++attempt) {
    TcpConn conn = ConnectLoopbackTimeout(port, 1000, &error);
    answered = conn.valid() &&
               conn.WriteAll(R"({"id": 1, "op": "ping"})" "\n") &&
               conn.ReadLine(&line, 2000) &&
               line.find(R"("ok":true)") != std::string::npos;
    if (!answered) cluster::SleepMillis(100);
  }
  EXPECT_TRUE(answered) << "the server stopped accepting after EMFILE";

  TcpConn conn = ConnectLoopbackTimeout(port, 1000, &error);
  if (conn.valid() &&
      conn.WriteAll(R"({"id": 2, "op": "shutdown"})" "\n")) {
    conn.ReadLine(&line);
  }
  int status = 0;
  for (int waited_ms = 0; !child.TryReap(&status) && waited_ms < 5000;
       waited_ms += 20) {
    cluster::SleepMillis(20);
  }
  if (child.running()) {
    child.Kill(SIGKILL);
    child.Reap();
  }
}

// The supervisor learns a worker's port from this ready line; anything
// but a whole port from 1 to 65535 is not one.
TEST(ServerLoopbackTest, ReadyLineNamesAWholePort) {
  int port = 0;
  ASSERT_TRUE(cluster::ParseReadyPort("ready port=8080", &port));
  EXPECT_EQ(port, 8080);
  for (const char* line :
       {"ready port= 80", "ready port=+80", "ready port=80x", "ready port=0",
        "ready port=65536", "ready port=", "ready 80"}) {
    EXPECT_FALSE(cluster::ParseReadyPort(line, &port)) << line;
  }
}

// A worker that writes half a reply line and stalls costs its reader the
// reply budget, not as long as the worker keeps the connection open: the
// budget bounds the whole line, not only the wait for its first byte.
TEST(ServerLoopbackTest, HalfALineTimesOutWithinTheBudget) {
  TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.Listen(0, &error)) << error;
  std::promise<void> reader_done;
  std::thread peer([&listener, done = reader_done.get_future()] {
    bool timed_out = false;
    TcpConn conn = listener.AcceptWithTimeout(5000, &timed_out);
    if (!conn.valid()) return;
    conn.WriteAll(R"({"id":1,"ok":tr)");
    done.wait_for(std::chrono::seconds(5));  // Stall with the line open.
  });

  cluster::WorkerClient client;
  EXPECT_TRUE(client.Connect(listener.port(), 1000, &error)) << error;
  const Stopwatch watch;
  std::vector<std::string> replies;
  EXPECT_FALSE(client.ReadLines(1, 200, &replies));
  const double waited_ms = watch.ElapsedMillis();
  EXPECT_GE(waited_ms, 190.0);
  EXPECT_LT(waited_ms, 1000.0);
  EXPECT_FALSE(client.connected());  // Dropped: a half line is not resumed.
  reader_done.set_value();
  peer.join();
}

TEST(ServerLoopbackTest, ShutdownOpStopsTheServeLoop) {
  ServerOptions options;
  options.threads = 1;
  Server server(std::move(options));
  server.RegisterDataset("d", gen::RandomWalkDataset(4, 16, 1));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serve_thread([&] { server.Serve(); });

  TcpConn conn = ConnectLoopback(server.port(), &error);
  ASSERT_TRUE(conn.valid()) << error;
  ASSERT_TRUE(conn.WriteAll(R"({"id": 1, "op": "shutdown"})" "\n"));
  std::string line;
  ASSERT_TRUE(conn.ReadLine(&line));  // The shutdown ack.
  serve_thread.join();  // Serve() returns without RequestShutdown().
  SUCCEED();
}

}  // namespace
}  // namespace serve
}  // namespace warp
