// Workloads serve_single and serve_cluster: client-observed serving.
//
// serve_single spawns `warp_serve --threads=2 --cache=1024`, cold-loads a
// seeded random-walk UCR file, and drives a query mix over loopback TCP:
// 50% 1nn, 20% knn (k=10), 10% range, 10% dist, 10% subsequence. 70% of
// queries are fresh (a dataset series warped and noised); 30% re-ask a
// Zipf-chosen hot set, so the result cache answers some. A control
// connection re-registers the dataset from a snapshot every few seconds,
// which bumps the epoch and empties the cache: the write path next to the
// reads. serve_cluster spawns `warp_cluster --shards=2 --threads=1` whose
// workers restore the same dataset from a snapshot; every query is fresh
// and nothing reloads, so the router's scatter/gather and its extra hop
// do the work and the cache does almost none.
//
// An untraced run is one closed loop (2 connections, pipeline depth 8)
// for the whole run. A traced run adds open loops at a fixed low and high
// rate, whose latency is timed from each request's scheduled send time;
// each sends `open_samples` requests and the closed loop gets the rest.
// One load-generator process uses at most four threads and three
// connections.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "suite.h"
#include "warp/cluster/proc.h"
#include "warp/common/random.h"
#include "warp/gen/random_walk.h"
#include "warp/gen/warping.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/net.h"
#include "warp/serve/protocol.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/request.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/wire.h"
#include "warp/ts/io.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace bench {
namespace suite {
namespace {

constexpr char kDataset[] = "bench";
constexpr double kWindow = 0.05;
constexpr double kNoise = 0.1;
constexpr size_t kKnnK = 10;
constexpr double kRangeThreshold = 20.0;
// Three of every ten serve_single requests re-ask the hot set.
constexpr size_t kHotPer10 = 3;
constexpr size_t kCacheEntries = 1024;
constexpr size_t kClusterShards = 2;
constexpr size_t kConnections = 2;
constexpr size_t kPipelineDepth = 8;
// warp_serve's default --bands: the in-process checker indexes the same.
constexpr double kBandFractions[] = {0.05, 0.1};
constexpr int kReadyTimeoutMs = 60000;
constexpr double kDrainGraceS = 10.0;

// Stream tags for MixSeed.
constexpr uint64_t kPoolTag = 0x9001;
constexpr uint64_t kSampleTag = 0x9002;

// ---- requests ---------------------------------------------------------------

// The op mix of every ten fresh queries: 50% 1nn, 20% knn, 10% range,
// 10% dist, 10% subsequence.
constexpr serve::QueryOp kOpPattern[10] = {
    serve::QueryOp::k1Nn,  serve::QueryOp::k1Nn,  serve::QueryOp::k1Nn,
    serve::QueryOp::k1Nn,  serve::QueryOp::k1Nn,  serve::QueryOp::kKnn,
    serve::QueryOp::kKnn,  serve::QueryOp::kRange, serve::QueryOp::kDist,
    serve::QueryOp::kSubsequence};

template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.UniformInt(i)]);
  }
}

// `count` values cycling through `pattern`, shuffled within each block of
// pattern.size(): exact proportions in every block, a seeded order.
template <typename T>
std::vector<T> Stratified(const std::vector<T>& pattern, size_t count,
                          Rng& rng) {
  std::vector<T> out;
  while (out.size() < count) {
    std::vector<T> block = pattern;
    Shuffle(&block, rng);
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(count);
  return out;
}

// The requests of a run, built and formatted before any phase starts:
// formatting 256 doubles costs the client about as much CPU as the server
// spends on a query, and on a small machine that would throttle the server
// under test. Send k carries entry k % size. Entries are distinct
// queries, so with more entries than the result cache holds a fresh entry
// is never answered from the cache.
//
// Every count that sets the cost of the mix is exact rather than drawn:
// the op of each fresh entry, which entries re-ask the hot set, and how
// often each hot entry is re-asked (the Zipf quantiles). knn costs twenty
// times a 1nn query, so a drawn mix moved capacity by several percent
// from seed to seed. The seed picks the series, the warps, the noise and
// the order.
struct RequestPool {
  std::vector<serve::ServeRequest> requests;
  std::vector<std::string> lines;
  std::vector<std::string> traced_lines;  // With "trace":true; traced runs.
};

serve::ServeRequest FreshRequest(const RunConfig& config, const Dataset& data,
                                 serve::QueryOp op, Rng& rng) {
  serve::ServeRequest request;
  request.dataset = kDataset;
  request.params.window_fraction = kWindow;
  request.op = op;
  const size_t source = rng.UniformInt(data.size());
  std::vector<double> query =
      ZNormalized(gen::ApplyRandomWarp(data[source].values(), kWindow, rng));
  for (double& v : query) v += rng.Gaussian(0.0, kNoise);
  switch (op) {
    case serve::QueryOp::kKnn:
      request.k = kKnnK;
      break;
    case serve::QueryOp::kRange:
      request.threshold = kRangeThreshold;
      break;
    case serve::QueryOp::kDist:
      request.index = source;
      break;
    case serve::QueryOp::kSubsequence: {
      request.index = source;
      const size_t length = config.Count("subsequence_length");
      const size_t start = rng.UniformInt(query.size() - length + 1);
      query.erase(query.begin(),
                  query.begin() + static_cast<ptrdiff_t>(start));
      query.resize(length);
      break;
    }
    case serve::QueryOp::k1Nn:
      break;
  }
  request.query = std::move(query);
  return request;
}

RequestPool MakeRequestPool(const RunConfig& config, const Dataset& data,
                            bool hot) {
  Rng rng(MixSeed(config.seed, kPoolTag));
  const size_t size = config.Count("pool_size");
  const std::vector<serve::QueryOp> pattern(std::begin(kOpPattern),
                                            std::end(kOpPattern));
  // Which entries re-ask the hot set.
  std::vector<uint8_t> hot_pattern(10, 0);
  std::fill_n(hot_pattern.begin(), hot ? kHotPer10 : 0, 1);
  const std::vector<uint8_t> is_hot = Stratified(hot_pattern, size, rng);
  const size_t hot_count =
      static_cast<size_t>(std::count(is_hot.begin(), is_hot.end(), 1));

  // The hot set, and the hot entry each hot request re-asks: Zipf
  // (exponent 1) over the set, at evenly spaced quantiles.
  std::vector<serve::ServeRequest> hot_set;
  std::vector<size_t> hot_picks;
  if (hot_count > 0) {
    const size_t hot_size = config.Count("hot_set");
    std::vector<double> cdf;
    double total = 0.0;
    for (size_t h = 0; h < hot_size; ++h) {
      hot_set.push_back(FreshRequest(config, data, pattern[h % 10], rng));
      total += 1.0 / static_cast<double>(h + 1);
      cdf.push_back(total);
    }
    for (size_t j = 0; j < hot_count; ++j) {
      const double u =
          (static_cast<double>(j) + 0.5) / static_cast<double>(hot_count);
      const size_t h = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u * total) - cdf.begin());
      hot_picks.push_back(std::min(h, hot_size - 1));
    }
    Shuffle(&hot_picks, rng);
  }

  const std::vector<serve::QueryOp> fresh_ops =
      Stratified(pattern, size - hot_count, rng);
  RequestPool pool;
  size_t next_hot = 0;
  size_t next_fresh = 0;
  for (size_t i = 0; i < size; ++i) {
    serve::ServeRequest request =
        is_hot[i] ? hot_set[hot_picks[next_hot++]]
                  : FreshRequest(config, data, fresh_ops[next_fresh++], rng);
    request.id = static_cast<int64_t>(i);
    pool.lines.push_back(serve::FormatRequest(request) + "\n");
    if (config.trace) {
      request.trace = true;
      pool.traced_lines.push_back(serve::FormatRequest(request) + "\n");
      request.trace = false;
    }
    pool.requests.push_back(std::move(request));
  }
  return pool;
}

// One send in every hundred, at a seeded offset, has its reply checked.
bool Sampled(uint64_t seed, uint64_t k) {
  return k % 100 == MixSeed(seed, kSampleTag) % 100;
}

// Everything that decides an answer, doubles as exact bit patterns.
std::string Digest(const serve::ServeResponse& response) {
  std::string out = response.ok ? "ok" : "error:" + response.error;
  char buffer[96];
  for (const serve::Neighbor& n : response.neighbors) {
    std::snprintf(buffer, sizeof(buffer), " %zu/%d/%a", n.index, n.label,
                  n.distance);
    out += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), " d=%a p=%zu partial=%d",
                response.distance, response.position,
                response.partial ? 1 : 0);
  return out + buffer;
}

// ---- servers ----------------------------------------------------------------

std::string ControlLine(const std::string& op, const std::string& path) {
  obs::JsonWriter json;
  json.BeginObject().Key("id").Int(-1).Key("op").String(op);
  if (!path.empty()) {
    json.Key("dataset").String(kDataset).Key("path").String(path);
  }
  json.EndObject();
  return json.TakeOutput();
}

bool RoundTrip(serve::TcpConn* conn, const std::string& line,
               std::string* reply) {
  return conn->WriteAll(line + "\n") && conn->ReadLine(reply);
}

bool ReplyOk(const std::string& reply) {
  serve::JsonValue root;
  std::string error;
  return serve::ParseJson(reply, &root, &error) && root.BoolOr("ok", false);
}

// A spawned warp_serve or warp_cluster, with its control connection.
// Destruction shuts it down and waits for every process it started.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::vector<std::string>& argv, size_t workers,
             std::string* error) {
    if (!child_.Spawn(argv, error)) return false;
    std::string line;
    for (size_t w = 0; w < workers; ++w) {
      if (!child_.WaitForLinePrefix("worker shard=", kReadyTimeoutMs, &line)) {
        *error = argv[0] + " printed no worker line";
        return false;
      }
      const size_t at = line.find("pid=");
      if (at != std::string::npos) {
        worker_pids_.push_back(
            std::strtol(line.c_str() + at + 4, nullptr, 10));
      }
    }
    if (!child_.WaitForLinePrefix("ready port=", kReadyTimeoutMs, &line)) {
      *error = argv[0] + " never printed its ready line";
      return false;
    }
    port_ = static_cast<int>(std::strtol(line.c_str() + 11, nullptr, 10));
    control_ = serve::ConnectLoopbackTimeout(port_, 5000, error);
    return control_.valid();
  }

  // Graceful shutdown op first; SIGKILL only for a process that ignores it.
  void Stop() {
    if (!child_.running()) return;
    std::string reply;
    if (control_.valid()) {
      RoundTrip(&control_, ControlLine("shutdown", ""), &reply);
    }
    control_.Close();
    const int64_t deadline = NowNs() + 15'000'000'000;
    while (!child_.TryReap(nullptr) && NowNs() < deadline) {
      cluster::SleepMillis(20);
    }
    if (child_.running()) {
      for (const long pid : worker_pids_) cluster::SendSignal(pid, SIGKILL);
      child_.Kill(SIGKILL);
      child_.Reap();
    }
    // Workers are the launcher's children; it reaps them on shutdown.
    // Wait until each is gone so no process outlives the run.
    for (const long pid : worker_pids_) {
      const int64_t worker_deadline = NowNs() + 5'000'000'000;
      while (cluster::SendSignal(pid, 0) && NowNs() < worker_deadline) {
        cluster::SleepMillis(20);
      }
      if (cluster::SendSignal(pid, 0)) cluster::SendSignal(pid, SIGKILL);
    }
  }

  // Summed peak RSS of the launcher and its workers.
  double PeakRssMb() const {
    double total = suite::PeakRssMb(child_.pid());
    for (const long pid : worker_pids_) total += suite::PeakRssMb(pid);
    return total;
  }

  int port() const { return port_; }
  serve::TcpConn* control() { return &control_; }

 private:
  cluster::ChildProcess child_;
  std::vector<long> worker_pids_;
  int port_ = 0;
  serve::TcpConn control_;
};

// ---- scraping the program's own telemetry ----------------------------------

// One reading of the `metrics` op: every counter and histogram sample of
// the warp-metrics-v1 exposition, keyed by sample name.
struct Scrape {
  std::map<std::string, double> values;
  // Histogram buckets: name -> (upper bound, cumulative count).
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;

  double Get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
};

bool ScrapeMetrics(serve::TcpConn* control, Scrape* out) {
  std::string reply;
  if (!RoundTrip(control, ControlLine("metrics", ""), &reply)) return false;
  serve::JsonValue root;
  std::string error;
  if (!serve::ParseJson(reply, &root, &error)) return false;
  const std::string body = root.StringOr("body", "");
  size_t pos = 0;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t brace = name.find("_bucket{le=\"");
    if (brace != std::string::npos) {
      const std::string bound = name.substr(brace + 12);
      if (bound.rfind("+Inf", 0) == 0) continue;
      out->buckets[name.substr(0, brace)].emplace_back(
          std::strtod(bound.c_str(), nullptr), value);
      continue;
    }
    out->values[name] = value;
  }
  return true;
}

// Delta of a counter or histogram field between two scrapes.
double Delta(const Scrape& after, const Scrape& before,
             const std::string& name) {
  return after.Get(name) - before.Get(name);
}

double HistogramMean(const Scrape& after, const Scrape& before,
                     const std::string& histogram) {
  return Ratio(Delta(after, before, "warp_" + histogram + "_sum"),
               Delta(after, before, "warp_" + histogram + "_count"));
}

// The q-quantile of the samples recorded between two scrapes, placed
// linearly by rank inside the log2 bucket that holds it (bucket i holds
// [2^(i-1), 2^i - 1]). The bucket bound alone would read the same on
// nearly every run.
double HistogramQuantile(const Scrape& after, const Scrape& before,
                         const std::string& histogram, double q) {
  const std::string key = "warp_" + histogram;
  const auto a = after.buckets.find(key);
  if (a == after.buckets.end()) return 0.0;
  std::map<double, double> base;
  const auto b = before.buckets.find(key);
  if (b != before.buckets.end()) {
    for (const auto& [bound, cum] : b->second) base[bound] = cum;
  }
  const double total = Delta(after, before, key + "_count");
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  // Cumulative counts are non-decreasing in the bound; a bound missing
  // from the earlier scrape carries the last earlier cumulative value.
  double below = 0.0;  // Samples in lower buckets.
  for (const auto& [bound, cum] : a->second) {
    const auto it = base.upper_bound(bound);
    const double earlier = it == base.begin() ? 0.0 : std::prev(it)->second;
    const double through = cum - earlier;
    if (through >= rank && through > below) {
      const double lower = bound < 1.0 ? 0.0 : (bound + 1.0) / 2.0;
      return lower + (bound - lower) * (rank - below) / (through - below);
    }
    below = through;
  }
  return a->second.empty() ? 0.0 : a->second.back().first;
}

// ---- load phases --------------------------------------------------------

struct SpanNames {
  uint32_t request = SpanName("client.request");
  uint32_t write = SpanName("net.write");
  uint32_t wait = SpanName("net.wait_reply");
  uint32_t parse = SpanName("serve.protocol.parse_response");
  uint32_t stages[6] = {
      SpanName("serve.stage.parse"),  SpanName("serve.stage.cache_lookup"),
      SpanName("serve.stage.queue_wait"), SpanName("serve.stage.engine_scan"),
      SpanName("serve.stage.merge"),  SpanName("serve.stage.serialize")};
};

struct InFlight {
  uint64_t k = 0;
  int64_t due_ns = 0;  // Scheduled send (open loop) or write start.
  int64_t t0 = 0;      // Write start.
  int64_t t1 = 0;      // Write end.
};

struct PhaseStats {
  // Per full answer (ok and not partial): latency, send index and
  // completion time.
  std::vector<double> latency_ms;
  std::vector<uint64_t> k;
  std::vector<int64_t> done_ns;
  std::vector<double> late_ms;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t not_ok = 0;
  uint64_t partial = 0;
  uint64_t backlog_end = 0;
  double wall_s = 0.0;
  // Replies checked against the in-process engine: (pool index, reply).
  std::vector<std::pair<uint64_t, std::string>> sampled;

  uint64_t failed() const { return not_ok + partial + (sent - received); }
  // Full answers per second.
  double qps() const {
    return Ratio(static_cast<double>(latency_ms.size()), wall_s);
  }

  void Merge(const PhaseStats& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    k.insert(k.end(), other.k.begin(), other.k.end());
    done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
    late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
    sent += other.sent;
    received += other.received;
    not_ok += other.not_ok;
    partial += other.partial;
    backlog_end += other.backlog_end;
    sampled.insert(sampled.end(), other.sampled.begin(), other.sampled.end());
  }
};

struct LoadContext {
  const RunConfig* config = nullptr;
  const RequestPool* pool = nullptr;
  int port = 0;
  bool stage_trace = false;  // Ask the server to echo its stage timings.
  std::atomic<uint64_t>* next_k = nullptr;
  const SpanNames* names = nullptr;
};

// Sends request k; fills the timestamps of *f. Only one thread writes a
// connection.
bool SendRequest(const LoadContext& ctx, serve::TcpConn* conn, InFlight* f) {
  f->k = ctx.next_k->fetch_add(1);
  const std::vector<std::string>& lines =
      ctx.stage_trace ? ctx.pool->traced_lines : ctx.pool->lines;
  f->t0 = NowNs();
  const bool ok = conn->WriteAll(lines[f->k % lines.size()]);
  f->t1 = NowNs();
  return ok;
}

// The server's echoed stage timings (microseconds), in stage order.
bool StageTimes(const std::string& reply, double stages_us[6]) {
  const size_t at = reply.rfind("\"trace\":");
  if (at == std::string::npos || reply.back() != '}') return false;
  serve::JsonValue trace;
  std::string error;
  if (!serve::ParseJson(reply.substr(at + 8, reply.size() - at - 9), &trace,
                        &error)) {
    return false;
  }
  const char* keys[6] = {"parse_us",  "cache_us", "queue_us",
                         "engine_us", "merge_us", "serialize_us"};
  for (int s = 0; s < 6; ++s) stages_us[s] = trace.NumberOr(keys[s], 0.0);
  return true;
}

void RecordRequestSpans(const LoadContext& ctx, const InFlight& f,
                        const std::string& reply, int64_t t3, int64_t t4) {
  const SpanNames& n = *ctx.names;
  const uint64_t root = NewSpanId();
  const uint64_t wait = NewSpanId();
  RecordSpan({root, 0, root, f.t0, t4, n.request});
  RecordSpan({NewSpanId(), root, root, f.t0, f.t1, n.write});
  RecordSpan({wait, root, root, f.t1, t3, n.wait});
  RecordSpan({NewSpanId(), root, root, t3, t4, n.parse});
  double stages_us[6];
  if (!ctx.stage_trace || !StageTimes(reply, stages_us)) return;
  // The server reports durations only; lay them end to end inside the
  // wait, clipped to it.
  int64_t at = f.t1;
  for (int s = 0; s < 6; ++s) {
    const int64_t end =
        std::min(t3, at + static_cast<int64_t>(stages_us[s] * 1e3));
    if (end > at) RecordSpan({NewSpanId(), wait, root, at, end, n.stages[s]});
    at = end;
  }
}

void Complete(const LoadContext& ctx, const InFlight& f,
              const std::string& reply, int64_t t3, PhaseStats* stats) {
  serve::ServeResponse response;
  std::string error;
  const bool parsed = serve::ParseResponseLine(reply, &response, &error);
  const int64_t t4 = NowNs();
  ++stats->received;
  // Only full answers count toward capacity and latency: a change that
  // fails requests fast must not read as faster.
  if (!parsed || !response.ok) {
    ++stats->not_ok;
  } else if (response.partial) {
    ++stats->partial;
  } else {
    stats->latency_ms.push_back(static_cast<double>(t4 - f.due_ns) * 1e-6);
    stats->k.push_back(f.k);
    stats->done_ns.push_back(t4);
  }
  if (Sampled(ctx.config->seed, f.k)) {
    stats->sampled.emplace_back(f.k % ctx.pool->lines.size(), reply);
  }
  if (SpansEnabled()) RecordRequestSpans(ctx, f, reply, t3, t4);
}

// Waits for `done` threads until `deadline_ns`; past it, shuts the
// connections down so blocked reads and writes return, then joins.
void JoinWithWatchdog(std::vector<std::thread>* threads,
                      const std::atomic<size_t>& done,
                      const std::vector<serve::TcpConn*>& conns,
                      int64_t deadline_ns) {
  while (done.load() < threads->size() && NowNs() < deadline_ns) {
    cluster::SleepMillis(10);
  }
  if (done.load() < threads->size()) {
    for (serve::TcpConn* conn : conns) conn->ShutdownBoth();
  }
  for (std::thread& t : *threads) t.join();
}

// Runs `during` on the calling thread until end_ns (the reload schedule).
using DuringFn = std::function<void(int64_t end_ns)>;

PhaseStats RunClosed(const LoadContext& ctx, double seconds,
                     const DuringFn& during) {
  std::vector<serve::TcpConn> conns(kConnections);
  for (serve::TcpConn& conn : conns) {
    std::string error;
    conn = serve::ConnectLoopbackTimeout(ctx.port, 5000, &error);
  }
  std::vector<PhaseStats> stats(kConnections);
  std::atomic<size_t> done{0};
  const int64_t begin = NowNs();
  const int64_t end = begin + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      serve::TcpConn& conn = conns[c];
      PhaseStats& s = stats[c];
      std::deque<InFlight> inflight;
      const auto send_next = [&] {
        InFlight f;
        if (!conn.valid() || !SendRequest(ctx, &conn, &f)) return;
        f.due_ns = f.t0;
        inflight.push_back(f);
        ++s.sent;
      };
      for (size_t d = 0; d < kPipelineDepth; ++d) send_next();
      while (!inflight.empty()) {
        std::string reply;
        if (!conn.ReadLine(&reply)) break;
        const int64_t t3 = NowNs();
        const InFlight f = inflight.front();
        inflight.pop_front();
        Complete(ctx, f, reply, t3, &s);
        if (NowNs() < end) send_next();
      }
      ++done;
    });
  }
  during(end);
  std::vector<serve::TcpConn*> raw;
  for (serve::TcpConn& conn : conns) raw.push_back(&conn);
  JoinWithWatchdog(&threads, done, raw,
                   end + static_cast<int64_t>(kDrainGraceS * 1e9));
  PhaseStats merged;
  for (const PhaseStats& s : stats) merged.Merge(s);
  merged.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
  return merged;
}

// One sender paces `sends` requests at `rate` across two connections; one
// receiver per connection reads replies in order.
PhaseStats RunOpen(const LoadContext& ctx, size_t sends, double rate,
                   const DuringFn& during) {
  struct Lane {
    serve::TcpConn conn;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<InFlight> inflight;
    bool sender_done = false;
    PhaseStats stats;
  };
  constexpr size_t kLanes = 2;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (size_t l = 0; l < kLanes; ++l) {
    lanes.push_back(std::make_unique<Lane>());
    std::string error;
    lanes[l]->conn = serve::ConnectLoopbackTimeout(ctx.port, 5000, &error);
  }
  PhaseStats sender_stats;
  std::atomic<size_t> done{0};
  const int64_t begin = NowNs();
  const int64_t end =
      begin + static_cast<int64_t>(static_cast<double>(sends) * 1e9 / rate);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (uint64_t i = 0; i < sends; ++i) {
      const int64_t due =
          begin + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      const int64_t wait = due - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      Lane& lane = *lanes[i % kLanes];
      InFlight f;
      f.due_ns = due;
      if (!lane.conn.valid() || !SendRequest(ctx, &lane.conn, &f)) continue;
      sender_stats.late_ms.push_back(static_cast<double>(f.t0 - due) * 1e-6);
      ++sender_stats.sent;
      std::lock_guard<std::mutex> lock(lane.mutex);
      lane.inflight.push_back(f);
      lane.cv.notify_one();
    }
    for (auto& lane : lanes) {
      std::lock_guard<std::mutex> lock(lane->mutex);
      sender_stats.backlog_end += lane->inflight.size();
      lane->sender_done = true;
      lane->cv.notify_one();
    }
    ++done;
  });
  for (size_t l = 0; l < kLanes; ++l) {
    threads.emplace_back([&, l] {
      Lane& lane = *lanes[l];
      for (;;) {
        {
          std::unique_lock<std::mutex> lock(lane.mutex);
          lane.cv.wait(lock, [&] {
            return !lane.inflight.empty() || lane.sender_done;
          });
          if (lane.inflight.empty()) break;
        }
        std::string reply;
        if (!lane.conn.ReadLine(&reply)) break;
        const int64_t t3 = NowNs();
        InFlight f;
        {
          std::lock_guard<std::mutex> lock(lane.mutex);
          f = lane.inflight.front();
          lane.inflight.pop_front();
        }
        Complete(ctx, f, reply, t3, &lane.stats);
      }
      ++done;
    });
  }
  during(end);
  std::vector<serve::TcpConn*> raw;
  for (auto& lane : lanes) raw.push_back(&lane->conn);
  JoinWithWatchdog(&threads, done, raw,
                   end + static_cast<int64_t>(kDrainGraceS * 1e9));
  PhaseStats merged = sender_stats;
  for (auto& lane : lanes) merged.Merge(lane->stats);
  merged.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
  return merged;
}

// ---- the workload -----------------------------------------------------------

std::vector<size_t> Bands(size_t length) {
  std::vector<size_t> bands;
  for (const double f : kBandFractions) {
    bands.push_back(
        static_cast<size_t>(std::lround(f * static_cast<double>(length))));
  }
  return bands;
}

// Times the four protocol functions on this run's own sampled lines.
void ProtocolLoops(const RequestPool& pool, const PhaseStats& stats,
                   Report* report) {
  std::vector<serve::ServeRequest> requests;
  std::vector<std::string> request_lines;
  std::vector<std::string> replies;
  std::vector<serve::ServeResponse> responses;
  for (const auto& [k, reply] : stats.sampled) {
    serve::ServeResponse response;
    std::string error;
    if (!serve::ParseResponseLine(reply, &response, &error)) continue;
    requests.push_back(pool.requests[k]);
    request_lines.push_back(serve::FormatRequest(requests.back()));
    replies.push_back(reply);
    responses.push_back(std::move(response));
  }
  if (requests.empty()) return;
  const auto format_request = [&](size_t i) {
    return static_cast<double>(serve::FormatRequest(requests[i]).size());
  };
  const auto parse_request = [&](size_t i) {
    serve::ParsedLine parsed;
    std::string error;
    serve::ParseRequestLine(request_lines[i], &parsed, &error);
    return static_cast<double>(parsed.request.query.size());
  };
  const auto format_response = [&](size_t i) {
    return static_cast<double>(serve::FormatResponse(responses[i]).size());
  };
  const auto parse_response = [&](size_t i) {
    serve::ServeResponse response;
    std::string error;
    serve::ParseResponseLine(replies[i], &response, &error);
    return response.distance;
  };
  const size_t n = requests.size();
  const auto add = [&](const char* name, double ns) {
    report->Add(std::string(name) + "_ns", ns, "ns", n);
  };
  add("serve.protocol.format_request",
      TimeLoop("serve.protocol.format_request", n, 0.02, format_request));
  add("serve.protocol.parse_request",
      TimeLoop("serve.protocol.parse_request", n, 0.02, parse_request));
  add("serve.protocol.format_response",
      TimeLoop("serve.protocol.format_response", n, 0.02, format_response));
  add("serve.protocol.parse_response",
      TimeLoop("serve.protocol.parse_response", n, 0.02, parse_response));
}

// The closed loop's gated numbers, computed the way the in-process
// workloads compute theirs. The loop cycles through the request pool, so
// every entry is sent once per pass; an entry's latency is the lower
// quartile of its passes (kLowerQuartile), and each block of `block`
// consecutive sends takes the lower quartile of its passes' durations
// (last full answer of the block minus that of the block before; a block
// with a failed or partial reply is not counted). Capacity is sends /
// Σ block durations; the latency percentiles are over the entries.
//
// This filtering drops any stall that hits fewer than a quarter of an
// entry's passes, so the tail it gives is that of typical per-entry cost.
// The unfiltered p99 of the whole phase could not be gated: across ten
// seeds its interquartile spread was 0.08 of its median on serve_single
// but 0.18-0.38 on serve_cluster, against 0.07-0.12 for the filtered
// tail; the largest bound a metric may have is 0.25.
struct ClosedLoop {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  uint64_t entries = 0;
};

ClosedLoop SummarizeClosed(const PhaseStats& s, size_t pool, size_t block) {
  ItemTimes latency(pool, kLowerQuartile);
  // Block index -> (full answers, last full answer's time).
  std::map<uint64_t, std::pair<size_t, int64_t>> blocks;
  for (size_t i = 0; i < s.k.size(); ++i) {
    latency.Add(s.k[i] % pool, s.latency_ms[i] * 1e6);
    auto& b = blocks[s.k[i] / block];
    ++b.first;
    b.second = std::max(b.second, s.done_ns[i]);
  }
  const size_t per_pass = pool / block;
  ItemTimes durations(per_pass, kLowerQuartile);
  for (auto it = blocks.begin(); it != blocks.end(); ++it) {
    const auto next = std::next(it);
    // Only whole blocks: the phase cuts one at each end.
    if (next == blocks.end() || next->first != it->first + 1 ||
        it->second.first < block || next->second.first < block) {
      continue;
    }
    durations.Add(next->first % per_pass,
                  static_cast<double>(next->second.second - it->second.second));
  }
  ClosedLoop out;
  out.ops_per_s = durations.Rate() * static_cast<double>(block);
  out.p50_ms = latency.QuantileMs(0.5);
  out.tail_ms = latency.TailMs();
  out.entries = latency.Costs().size();
  return out;
}

// One summary line per phase, with the sample count behind each
// percentile.
void NotePhase(const std::string& name, const PhaseStats& s,
               Report* report) {
  const uint64_t n = s.latency_ms.size();
  char line[200];
  std::snprintf(line, sizeof(line),
                "phase %-10s sent %6llu received %6llu failed %4llu "
                "p50 %.3f ms p99 %.3f ms (n=%llu) in %.2f s",
                name.c_str(), static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.received),
                static_cast<unsigned long long>(s.failed()),
                Quantile(s.latency_ms, 0.5), Quantile(s.latency_ms, 0.99),
                static_cast<unsigned long long>(n), s.wall_s);
  report->Note(line);
  if (n < 1000) {
    report->Note("warning: phase " + name + " has fewer than 1000 samples");
  }
}

}  // namespace

void RunServe(const RunConfig& config, bool cluster, Report* report) {
  namespace fs = std::filesystem;
  // Inputs: a seeded random-walk dataset written as a UCR file and read
  // back, so the checker holds exactly the values the server parses.
  const std::string ucr_path =
      fs::absolute(fs::path(config.work_dir) / "bench.tsv").string();
  const std::string snapshot_dir =
      fs::absolute(fs::path(config.work_dir) / "snapshots").string();
  const std::string snapshot_path = snapshot_dir + "/bench.wsnap";
  Dataset data;
  std::string error;
  {
    const Dataset generated = gen::RandomWalkDataset(
        config.Count("series"), config.Count("length"),
        MixSeed(config.seed, 0x77));
    fs::create_directories(snapshot_dir);
    if (!SaveUcrFile(ucr_path, generated, &error) ||
        !LoadUcrFile(ucr_path, &data, &error)) {
      report->Check(false, "dataset file: " + error);
      return;
    }
  }
  serve::DatasetStore store(1);
  store.Register(kDataset, data, Bands(data.UniformLength()));
  if (!serve::SaveSnapshot(*store.Get(kDataset), snapshot_path, &error)) {
    report->Check(false, "snapshot: " + error);
    return;
  }
  if (config.Count("pool_size") % config.Count("block") != 0) {
    report->Check(false, "pool_size must be a multiple of block");
    return;
  }
  const RequestPool pool = MakeRequestPool(config, data, !cluster);

  std::vector<std::string> argv;
  size_t workers = 0;
  if (cluster) {
    argv = {config.bin_dir + "/warp_cluster",
            "--shards=" + std::to_string(kClusterShards),
            "--threads=" + std::to_string(config.Count("server_threads")),
            "--port=0", "--snapshot-dir=" + snapshot_dir,
            "--worker-bin=" + config.bin_dir + "/warp_serve"};
    workers = kClusterShards;
  } else {
    argv = {config.bin_dir + "/warp_serve", "--port=0",
            "--threads=" + std::to_string(config.Count("server_threads")),
            "--cache=" + std::to_string(kCacheEntries),
            "--simd=" + config.simd};
  }

  // Set-up: spawn -> ready (-> cold load for serve_single). Timed
  // `setup_reps` times before the measurement, the last server staying up
  // for it, and as many times after it, so that one slow spell of the
  // machine does not set every repetition; the median is reported.
  std::vector<double> setup_s;
  std::vector<double> load_s;
  const auto start_server = [&]() -> std::unique_ptr<ServerProcess> {
    auto server = std::make_unique<ServerProcess>();
    const int64_t t0 = NowNs();
    if (!server->Start(argv, workers, &error)) {
      report->Check(false, "server start: " + error);
      return nullptr;
    }
    if (!cluster) {
      const int64_t l0 = NowNs();
      std::string reply;
      if (!RoundTrip(server->control(), ControlLine("load", ucr_path),
                     &reply) ||
          !ReplyOk(reply)) {
        report->Check(false, "cold load failed: " + reply);
        return nullptr;
      }
      load_s.push_back(static_cast<double>(NowNs() - l0) * 1e-9);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    return server;
  };
  std::unique_ptr<ServerProcess> server;
  for (size_t rep = 0; rep < config.Count("setup_reps"); ++rep) {
    server.reset();
    server = start_server();
    if (server == nullptr) return;
  }

  std::atomic<uint64_t> next_k{0};
  const SpanNames names;
  LoadContext ctx;
  ctx.config = &config;
  ctx.pool = &pool;
  ctx.port = server->port();
  ctx.next_k = &next_k;
  ctx.names = &names;

  // serve_single re-registers the dataset from its snapshot on a fixed
  // schedule across all phases.
  std::vector<double> reload_s;
  const double reload_interval = cluster ? 0.0 : config.Param("reload_s");
  int64_t next_reload = NowNs() + static_cast<int64_t>(reload_interval * 1e9);
  bool control_ok = true;
  const DuringFn during = [&](int64_t end_ns) {
    while (NowNs() < end_ns) {
      if (reload_interval > 0.0 && NowNs() >= next_reload) {
        const int64_t r0 = NowNs();
        std::string reply;
        control_ok = control_ok &&
                     RoundTrip(server->control(),
                               ControlLine("load_snapshot", snapshot_path),
                               &reply) &&
                     ReplyOk(reply);
        reload_s.push_back(static_cast<double>(NowNs() - r0) * 1e-9);
        next_reload += static_cast<int64_t>(reload_interval * 1e9);
      }
      const int64_t until =
          reload_interval > 0.0 ? std::min(end_ns, next_reload) : end_ns;
      const int64_t nap_ms = (until - NowNs()) / 1'000'000;
      cluster::SleepMillis(
          static_cast<int>(std::clamp<int64_t>(nap_ms, 1, 50)));
    }
  };

  // An untraced run is one closed loop, which the gated numbers come from,
  // for the whole run. A traced run gives the closed loop what the two
  // open loops leave, half of it untraced (the base of
  // trace.overhead_frac) and half traced. The open loops run untraced, and
  // each sends a fixed number of requests, enough for a p99 with ten
  // samples beyond it.
  const size_t open_samples = config.Count("open_samples");
  const double rate_low = config.Param("rate_low");
  const double rate_high = config.Param("rate_high");
  const double closed_s =
      config.trace ? config.seconds -
                         static_cast<double>(open_samples) / rate_low -
                         static_cast<double>(open_samples) / rate_high
                   : config.seconds;
  if (closed_s <= 0.0) {
    report->Check(false, "the run is too short for the open-loop phases");
    return;
  }

  // Warm-up: hot set into the cache, pools and pages touched. Untimed.
  RunClosed(ctx, config.Param("warmup_s"), during);

  Scrape before;
  Scrape after;
  PhaseStats untraced;
  PhaseStats closed;
  PhaseStats low;
  PhaseStats high;
  double overhead = 0.0;
  if (config.trace) {
    untraced = RunClosed(ctx, closed_s / 2.0, during);
    ScrapeMetrics(server->control(), &before);
    low = RunOpen(ctx, open_samples, rate_low, during);
    high = RunOpen(ctx, open_samples, rate_high, during);
    ctx.stage_trace = !cluster;
    EnableSpans(true);
    closed = RunClosed(ctx, closed_s / 2.0, during);
    EnableSpans(false);
    overhead = 1.0 - closed.qps() / untraced.qps();
  } else {
    ScrapeMetrics(server->control(), &before);
    closed = RunClosed(ctx, closed_s, during);
  }
  ScrapeMetrics(server->control(), &after);

  // Round trip of the cheapest op, on the control connection.
  std::vector<double> ping_us;
  for (size_t i = 0; i < 200; ++i) {
    std::string reply;
    const int64_t p0 = NowNs();
    if (!RoundTrip(server->control(), ControlLine("ping", ""), &reply)) break;
    ping_us.push_back(static_cast<double>(NowNs() - p0) * 1e-3);
  }
  const double peak_rss = server->PeakRssMb();
  server.reset();
  report->Check(control_ok, "a load_snapshot reload failed");
  for (size_t rep = 0; rep < config.Count("setup_reps"); ++rep) {
    if (start_server() == nullptr) return;
  }

  // Check 1% of the replies, chosen by seed, against an in-process engine
  // on the same dataset.
  PhaseStats all;
  all.Merge(untraced);
  all.Merge(closed);
  all.Merge(low);
  all.Merge(high);
  serve::QueryEngine engine(&store, nullptr, 1);
  size_t mismatches = 0;
  for (const auto& [k, reply] : all.sampled) {
    serve::ServeResponse got;
    const bool parsed = serve::ParseResponseLine(reply, &got, &error);
    const serve::ServeResponse expected = engine.Run(pool.requests[k]);
    if (!parsed || Digest(got) != Digest(expected)) {
      if (++mismatches <= 3) {
        report->Check(false, "request " + std::to_string(k) + ": served " +
                                 Digest(got) + " expected " +
                                 Digest(expected));
      }
    }
  }
  report->Check(!all.sampled.empty(), "no reply was sampled for checking");
  report->Check(mismatches == 0,
                std::to_string(mismatches) + " sampled replies differ");

  // End-to-end metrics from the closed loop (SummarizeClosed). The plain
  // closed-loop and open-loop numbers are reported beside them but not
  // gated: at a fixed rate, a slow spell of the shared host that halves
  // capacity turns a light load into a queue, and their run-to-run
  // spread exceeded any usable bound.
  std::vector<std::pair<const char*, const PhaseStats*>> phases = {
      {"closed", &closed}};
  if (config.trace) {
    phases.insert(phases.end(), {{"open_low", &low}, {"open_high", &high}});
  }
  for (const auto& [name, phase] : phases) {
    NotePhase(name, *phase, report);
    const uint64_t n = phase->latency_ms.size();
    report->Add(std::string(name) + "_p50_ms",
                Quantile(phase->latency_ms, 0.5), "ms", n);
    report->Add(std::string(name) + "_p99_ms",
                Quantile(phase->latency_ms, 0.99), "ms", n);
  }
  report->Add("closed_qps", closed.qps(), "1/s", closed.latency_ms.size());
  const ClosedLoop gated = SummarizeClosed(closed, pool.lines.size(),
                                           config.Count("block"));
  report->Add("ops_per_s", gated.ops_per_s, "1/s", closed.latency_ms.size());
  report->Add("p50_ms", gated.p50_ms, "ms", gated.entries);
  report->Add("tail_ms", gated.tail_ms, "ms", gated.entries);
  AddSetup(setup_s, report);
  report->Add("peak_rss_mb", peak_rss, "MB");
  report->Add("error_rate",
              Ratio(static_cast<double>(all.failed()),
                    static_cast<double>(all.sent)),
              "fraction", all.sent);
  report->Attempt(all.sent, all.failed());
  report->Add("checked_replies", static_cast<double>(all.sampled.size()),
              "count");

  // Per-layer metrics, from the program's own telemetry between the
  // scrapes taken around the measured phases.
  const auto d = [&](const std::string& name) {
    return Delta(after, before, name);
  };
  const double requests = d("warp_serve_requests_total");
  report->Add("serve.net.ping_rtt_us", Median(ping_us), "us", ping_us.size());
  const char* stages[] = {"parse", "cache_lookup", "queue_wait",
                          "engine_scan", "merge", "serialize"};
  for (const char* stage : stages) {
    report->Add(std::string("serve.stage.") + stage + "_us",
                HistogramMean(after, before,
                              std::string("serve_stage_") + stage + "_us"),
                "us");
  }
  report->Add("serve.stage.queue_wait_us_p99",
              HistogramQuantile(after, before, "serve_stage_queue_wait_us",
                                0.99),
              "us");
  report->Add("serve.batcher.occupancy_mean",
              HistogramMean(after, before, "serve_batch_occupancy"),
              "requests");
  report->Add("serve.batcher.shed_frac",
              Ratio(d("warp_serve_shed_total"), requests), "fraction");
  report->Add("serve.engine.cells_per_query",
              HistogramMean(after, before, "serve_cells_per_query"), "cells");
  for (const char* op : {"1nn", "knn", "range", "dist", "subsequence"}) {
    report->Add(std::string("serve.engine.us_per_query.") + op,
                HistogramMean(after, before,
                              std::string("serve_latency_") + op + "_us"),
                "us");
  }
  const double hits = d("warp_serve_result_cache_hits_total");
  const double misses = d("warp_serve_result_cache_misses_total");
  report->Add("serve.cache.hit_frac", Ratio(hits, hits + misses), "fraction");
  report->Add("serve.snapshot.load_us",
              Ratio(after.Get("warp_serve_snapshot_load_us_sum"),
                    after.Get("warp_serve_snapshot_load_us_count")),
              "us");
  report->Add("simd.vector_frac",
              Ratio(d("warp_simd_blocks_total"),
                    d("warp_simd_blocks_total") +
                        d("warp_simd_scalar_tail_total")),
              "fraction");
  report->Add("common.pool.queue_wait_us_per_task",
              Ratio(d("warp_pool_queue_wait_nanos_total") * 1e-3,
                    d("warp_pool_tasks_total")),
              "us");
  if (cluster) {
    const double client_queries = static_cast<double>(closed.received +
                                                      low.received +
                                                      high.received);
    report->Add("cluster.router.gather_us",
                HistogramMean(after, before, "router_gather_us"), "us");
    report->Add("cluster.router.gather_us_p99",
                HistogramQuantile(after, before, "router_gather_us", 0.99),
                "us");
    report->Add("cluster.scatters_per_query",
                Ratio(d("warp_cluster_scatters_total"), client_queries),
                "scatters");
    report->Add("cluster.partial_frac",
                Ratio(d("warp_cluster_partial_replies_total"), client_queries),
                "fraction");
  } else {
    report->Add("serve.store.load_s", Median(load_s), "s", load_s.size());
    report->Add("serve.snapshot.reload_s", Median(reload_s), "s",
                reload_s.size());
  }
  if (config.trace) {
    report->Add("loadgen.late_ms_p99.low", Quantile(low.late_ms, 0.99), "ms",
                low.late_ms.size());
    report->Add("loadgen.late_ms_p99.high", Quantile(high.late_ms, 0.99),
                "ms", high.late_ms.size());
    report->Add("loadgen.backlog_end.low",
                static_cast<double>(low.backlog_end), "requests");
    report->Add("loadgen.backlog_end.high",
                static_cast<double>(high.backlog_end), "requests");
    ProtocolLoops(pool, all, report);
    report->Add("trace.overhead_frac", overhead, "fraction");
    if (cluster) {
      report->Note(
          "note: the router does not carry traces yet, so on serve_cluster "
          "each request's span tree stops at net.wait_reply");
    }
  }
}

}  // namespace suite
}  // namespace bench
}  // namespace warp
