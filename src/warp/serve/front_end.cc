#include "warp/serve/front_end.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <utility>

#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"
#include "warp/serve/net.h"

namespace warp {
namespace serve {

namespace {

// How often the accept loop re-checks the shutdown flag.
constexpr int kAcceptPollMs = 100;

}  // namespace

struct FrontEnd::Impl {
  struct Connection {
    TcpConn conn;
    std::thread thread;
    std::atomic<bool> finished{false};  // Set as the handler returns.
  };

  explicit Impl(FrontEndHandlers handlers_in)
      : handlers(std::move(handlers_in)) {}

  void HandleConnection(Connection* connection);
  // Joins and closes every connection whose handler has returned, so a
  // long-lived server holds descriptors and threads only for live ones.
  void ReapFinishedConnections();
  // Unblocks, joins and forgets every connection thread.
  void JoinConnections();

  FrontEndHandlers handlers;
  TcpListener listener;
  // The bound port, kept past the listener's Close(): connection threads
  // read it (the `info` op) while Serve() shuts the listener down.
  int port = 0;
  std::atomic<bool> shutdown{false};
  std::mutex conn_mutex;
  std::vector<std::unique_ptr<Connection>> connections;
};

void FrontEnd::Impl::HandleConnection(Connection* connection) {
  WARP_GAUGE_ADD(obs::Gauge::kServeOpenConnections, 1);
  std::string first;
  while (!shutdown.load(std::memory_order_relaxed) &&
         connection->conn.ReadLine(&first)) {
    // Drain everything the client has already pipelined: those lines form
    // one batch, which is where the batcher's group commit pays off.
    std::vector<std::string> lines;
    lines.push_back(std::move(first));
    while (connection->conn.HasBufferedLine()) {
      std::string more;
      if (!connection->conn.ReadLine(&more)) break;
      lines.push_back(std::move(more));
    }

    // Lines take effect strictly in order: runs of consecutive queries
    // form one batch, and a control op (stats, load, shutdown) flushes
    // the pending batch first so it observes every query that preceded
    // it on the wire.
    std::vector<std::string> out(lines.size());
    std::vector<ServeRequest> queries;
    std::vector<size_t> query_slot;
    std::vector<double> query_parse_us;  // Parallel to `queries`.
    const auto flush_queries = [&] {
      if (queries.empty()) return;
      std::vector<std::string> replies;
      handlers.queries(std::move(queries), query_parse_us, &replies);
      for (size_t j = 0; j < query_slot.size(); ++j) {
        out[query_slot[j]] = std::move(replies[j]);
      }
      queries.clear();
      query_slot.clear();
      query_parse_us.clear();
    };
    bool want_shutdown = false;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;  // Blank lines are keep-alives.
      ParsedLine parsed;
      std::string error;
      const Stopwatch parse_watch;
      const bool parsed_ok = ParseRequestLine(lines[i], &parsed, &error);
      const double parse_us = parse_watch.ElapsedMicros();
      WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageParse, parse_us);
      if (!parsed_ok) {
        out[i] = FormatErrorLine(parsed.id, error);
      } else if (parsed.control == ControlOp::kNone) {
        queries.push_back(std::move(parsed.request));
        query_slot.push_back(i);
        query_parse_us.push_back(parse_us);
      } else {
        flush_queries();
        out[i] = handlers.control(parsed, lines[i]);
        if (parsed.control == ControlOp::kShutdown) want_shutdown = true;
      }
    }
    flush_queries();

    std::string payload;
    for (const std::string& response : out) {
      if (response.empty()) continue;
      payload += response;
      payload += '\n';
    }
    if (!payload.empty() && !connection->conn.WriteAll(payload)) break;
    if (want_shutdown) {
      shutdown.store(true, std::memory_order_relaxed);
      break;
    }
  }
  connection->conn.ShutdownBoth();
  WARP_GAUGE_ADD(obs::Gauge::kServeOpenConnections, -1);
  connection->finished.store(true, std::memory_order_release);
}

void FrontEnd::Impl::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(conn_mutex);
  std::erase_if(connections, [](const std::unique_ptr<Connection>& c) {
    if (!c->finished.load(std::memory_order_acquire)) return false;
    c->thread.join();
    return true;
  });
}

void FrontEnd::Impl::JoinConnections() {
  std::lock_guard<std::mutex> lock(conn_mutex);
  for (std::unique_ptr<Connection>& connection : connections) {
    connection->conn.ShutdownBoth();
    if (connection->thread.joinable()) connection->thread.join();
  }
  connections.clear();
}

FrontEnd::FrontEnd(FrontEndHandlers handlers)
    : impl_(std::make_unique<Impl>(std::move(handlers))) {}

FrontEnd::~FrontEnd() {
  RequestShutdown();
  impl_->JoinConnections();
}

bool FrontEnd::Start(uint16_t port, std::string* error) {
  if (!impl_->listener.Listen(port, error)) return false;
  impl_->port = impl_->listener.port();
  return true;
}

int FrontEnd::port() const { return impl_->port; }

void FrontEnd::Serve() {
  while (!impl_->shutdown.load(std::memory_order_relaxed)) {
    impl_->ReapFinishedConnections();
    bool timed_out = false;
    TcpConn conn = impl_->listener.AcceptWithTimeout(kAcceptPollMs, &timed_out);
    if (!conn.valid()) {
      if (timed_out) continue;  // Includes EMFILE back-off (net.h).
      break;  // Listener closed or failed.
    }
    auto connection = std::make_unique<Impl::Connection>();
    connection->conn = std::move(conn);
    Impl::Connection* raw = connection.get();
    connection->thread =
        std::thread([this, raw] { impl_->HandleConnection(raw); });
    std::lock_guard<std::mutex> lock(impl_->conn_mutex);
    impl_->connections.push_back(std::move(connection));
  }

  impl_->listener.Close();
  impl_->JoinConnections();
}

void FrontEnd::RequestShutdown() {
  impl_->shutdown.store(true, std::memory_order_relaxed);
}

int FrontEnd::Run(const char* program, uint16_t port) {
  std::string error;
  if (!Start(port, &error)) {
    std::fprintf(stderr, "%s: %s\n", program, error.c_str());
    return 1;
  }
  std::printf("%s listening on 127.0.0.1:%d\n", program, this->port());
  // Machine-scrapable readiness line: harnesses and the cluster
  // supervisor parse this exact shape to learn a port-0 binding.
  std::printf("ready port=%d\n", this->port());
  std::fflush(stdout);
  Serve();
  return 0;
}

}  // namespace serve
}  // namespace warp
