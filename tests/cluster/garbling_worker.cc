// A shard worker whose scan replies are corrupt, for the router
// fault-injection test in reply_fuzz_test.cc. The cluster supervisor
// spawns it in place of warp_serve, with warp_serve's worker flags.
//
// It serves its shard from an in-process serve::Server on a private port
// and answers the router through a FrontEnd proxy. The proxy relays every
// line unchanged, except that on shard 1 each 1nn/knn/range reply's first
// neighbor gets "index":-1 — a line that is still valid JSON but names no
// series, so only the reply parser's range check can catch it.

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "warp/serve/front_end.h"
#include "warp/serve/net.h"
#include "warp/serve/protocol.h"
#include "warp/serve/server.h"

namespace {

constexpr long kGarbledShard = 1;

void Garble(std::string* reply) {
  const std::string marker = R"("neighbors":[{"index":)";
  const size_t at = reply->find(marker);
  if (at != std::string::npos) {
    reply->insert(at + marker.size(), R"(-1,"was":)");
  }
}

}  // namespace

int main(int argc, char** argv) {
  warp::serve::ServerOptions options;
  std::string snapshot_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const char* value = eq == std::string::npos ? "" : argv[i] + eq + 1;
    if (key == "--shard-id") {
      options.worker_shard = std::strtol(value, nullptr, 10);
    } else if (key == "--shards") {
      options.shards = std::strtoul(value, nullptr, 10);
    } else if (key == "--snapshot-dir") {
      snapshot_dir = value;
    }
  }
  warp::serve::Server server(options);
  std::string error;
  if (!server.LoadSnapshotDir(snapshot_dir, &error) || !server.Start(&error)) {
    std::fprintf(stderr, "garbling_worker: %s\n", error.c_str());
    return 1;
  }
  std::thread serve_thread([&server] { server.Serve(); });

  // One upstream connection, shared by the proxy's connection threads.
  std::mutex upstream_mutex;
  warp::serve::TcpConn upstream;
  const auto relay = [&](const std::string& payload, size_t lines) {
    std::lock_guard<std::mutex> lock(upstream_mutex);
    std::string connect_error;
    if (!upstream.valid()) {
      upstream = warp::serve::ConnectLoopback(server.port(), &connect_error);
    }
    std::vector<std::string> replies(lines);
    if (upstream.WriteAll(payload)) {
      for (std::string& reply : replies) upstream.ReadLine(&reply);
    }
    return replies;
  };
  const bool garbled = options.worker_shard == kGarbledShard;
  warp::serve::FrontEnd proxy(warp::serve::FrontEndHandlers{
      [&](std::vector<warp::serve::ServeRequest> queries,
          const std::vector<double>& /*parse_us*/,
          std::vector<std::string>* replies) {
        std::string payload;
        for (const warp::serve::ServeRequest& query : queries) {
          payload += warp::serve::FormatRequest(query) + "\n";
        }
        *replies = relay(payload, queries.size());
        for (std::string& reply : *replies) {
          if (garbled) Garble(&reply);
        }
      },
      [&](const warp::serve::ParsedLine& /*parsed*/, const std::string& raw) {
        return relay(raw + "\n", 1)[0];
      }});
  const int status = proxy.Run("garbling_worker", 0);
  server.RequestShutdown();
  serve_thread.join();
  return status;
}
