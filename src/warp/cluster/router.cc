#include "warp/cluster/router.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "warp/cluster/supervisor.h"
#include "warp/cluster/worker.h"
#include "warp/common/metrics.h"
#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/front_end.h"
#include "warp/serve/protocol.h"
#include "warp/serve/request.h"
#include "warp/serve/slowlog.h"
#include "warp/serve/telemetry.h"
#include "warp/serve/wire.h"

namespace warp {
namespace cluster {

namespace {

using serve::ControlOp;
using serve::DatasetInfo;
using serve::Neighbor;
using serve::ParsedLine;
using serve::QueryOp;
using serve::ServeRequest;
using serve::ServeResponse;

// What the router asks each worker for when it answers stats, metrics or
// telemetry: the lossless snapshot, merged here and rendered by the same
// renderers a plain server uses.
constexpr char kTelemetryRequest[] = R"({"id":0,"op":"telemetry"})";

// Per-worker budgets: one (re)connect, and the wait for one reply line.
constexpr int kConnectTimeoutMs = 2000;
constexpr int kGatherTimeoutMs = 60000;

}  // namespace

struct Router::Impl {
  struct Link {
    WorkerClient client;
    uint64_t generation = 0;
  };

  // One connection per worker, used by one client batch or control op at
  // a time.
  using LinkSet = std::vector<Link>;

  // A link set taken from the pool for one scatter or control op and
  // given back when the lease ends. A thread holds at most one lease: at
  // the cap, waiting for a second while holding the first could wait
  // forever.
  class LinkLease {
   public:
    explicit LinkLease(Impl* impl) : impl_(impl), links_(impl->TakeLinks()) {}
    ~LinkLease() { impl_->ReturnLinks(std::move(links_)); }
    LinkLease(const LinkLease&) = delete;
    LinkLease& operator=(const LinkLease&) = delete;

    LinkSet& links() { return links_; }

   private:
    Impl* impl_;
    LinkSet links_;
  };

  // One worker's answer to a Broadcast.
  struct WorkerReply {
    bool sent = false;  // The request reached the worker.
    std::string line;   // Its reply; empty when none came back.
  };

  // Bookkeeping for one query inside a scatter pass.
  struct QueryState {
    std::vector<size_t> targets;           // Shards scattered to, ascending.
    std::vector<ServeResponse> subs;       // Parallel to `targets`.
    std::vector<bool> have;                // Parallel to `targets`.
    std::vector<size_t> missing;           // Shards with no answer.
    DatasetInfo info;
    bool have_info = false;
  };

  Impl(const RouterOptions& opts, Supervisor* sup)
      : options(opts),
        supervisor(sup),
        front_end(serve::FrontEndHandlers{
            [this](std::vector<ServeRequest> queries,
                   const std::vector<double>& /*parse_us*/,
                   std::vector<std::string>* replies) {
              ExecuteQueries(queries, replies);
            },
            [this](const ParsedLine& parsed, const std::string& raw) {
              return HandleControl(parsed, raw);
            }}) {}

  // ---- the link pool ----

  // An idle link set, or a new one while fewer than kMaxWorkerLinkSets
  // exist; otherwise waits for one to come back.
  LinkSet TakeLinks() {
    std::unique_lock<std::mutex> lock(pool_mutex);
    pool_ready.wait(lock, [this] {
      return !idle_links.empty() || open_link_sets < kMaxWorkerLinkSets;
    });
    if (idle_links.empty()) {
      ++open_link_sets;
      return LinkSet(supervisor->shards());
    }
    LinkSet links = std::move(idle_links.back());
    idle_links.pop_back();
    return links;
  }

  void ReturnLinks(LinkSet links) {
    {
      std::lock_guard<std::mutex> lock(pool_mutex);
      idle_links.push_back(std::move(links));
    }
    pool_ready.notify_one();
  }

  // ---- worker links (one leased set) ----

  bool LinkUp(LinkSet& links, size_t shard) {
    const WorkerStatus status = supervisor->Status(shard);
    Link& link = links[shard];
    if (!status.up) {
      link.client.Disconnect();
      return false;
    }
    if (link.client.connected() && link.generation == status.generation) {
      return true;
    }
    std::string error;
    if (!link.client.Connect(status.port, kConnectTimeoutMs, &error)) {
      return false;
    }
    link.generation = status.generation;
    return true;
  }

  // Sends `line` to every live worker, then reads one reply from each, in
  // shard order. Sending everything first lets the workers work in
  // parallel; reading every sent link keeps none of them out of step.
  std::vector<WorkerReply> Broadcast(LinkSet& links, const std::string& line) {
    const std::string payload = line + "\n";
    std::vector<WorkerReply> replies(links.size());
    for (size_t shard = 0; shard < links.size(); ++shard) {
      replies[shard].sent =
          LinkUp(links, shard) && links[shard].client.Send(payload);
    }
    for (size_t shard = 0; shard < links.size(); ++shard) {
      std::vector<std::string> lines;
      if (replies[shard].sent &&
          links[shard].client.ReadLines(1, kGatherTimeoutMs, &lines)) {
        replies[shard].line = std::move(lines[0]);
      }
    }
    return replies;
  }

  // First live worker that completes `line` -> one reply.
  bool FirstWorkerRoundTrip(LinkSet& links, const std::string& line,
                            std::string* reply) {
    for (size_t shard = 0; shard < links.size(); ++shard) {
      if (!LinkUp(links, shard)) continue;
      std::vector<std::string> replies;
      if (!links[shard].client.Send(line + "\n") ||
          !links[shard].client.ReadLines(1, kGatherTimeoutMs, &replies)) {
        continue;
      }
      *reply = std::move(replies[0]);
      return true;
    }
    return false;
  }

  // ---- dataset info cache (info_mutex) ----

  // Caches the dataset fields of a worker's ok `info` or `load` reply.
  bool RememberInfo(const serve::JsonValue& reply, DatasetInfo* info) {
    if (!reply.BoolOr("ok", false) || !serve::ReadDatasetInfo(reply, info)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(info_mutex);
    dataset_info[info->dataset] = *info;
    return true;
  }

  // The cached info of `dataset`, else one worker's `info` reply, asked on
  // a link set of its own: the caller must hold no lease.
  bool EnsureInfo(const std::string& dataset, DatasetInfo* info) {
    {
      std::lock_guard<std::mutex> lock(info_mutex);
      const auto it = dataset_info.find(dataset);
      if (it != dataset_info.end()) {
        *info = it->second;
        return true;
      }
    }
    obs::JsonWriter writer;
    writer.BeginObject()
        .Key("id").Int(0)
        .Key("op").String("info")
        .Key("dataset").String(dataset)
        .EndObject();
    std::string reply;
    {
      LinkLease lease(this);
      if (!FirstWorkerRoundTrip(lease.links(), writer.TakeOutput(), &reply)) {
        return false;
      }
    }
    serve::JsonValue root;
    std::string error;
    return serve::ParseJson(reply, &root, &error) && RememberInfo(root, info);
  }

  // ---- scatter / gather ----

  // One scatter/gather pass over the queries listed in `idx`. Fills
  // (*merged)[i] for each. When `retry` is non-null, queries whose
  // sub-scans hit an epoch mismatch are appended there (with their cache
  // entry invalidated) instead of being answered; when null, the
  // mismatch error is relayed like any other worker error. Only the send
  // and the gather hold a link set; planning, formatting, parsing and
  // merging overlap with other batches.
  void ScatterPass(const std::vector<ServeRequest>& requests,
                   const std::vector<size_t>& idx,
                   std::vector<ServeResponse>* merged,
                   std::vector<size_t>* retry) {
    const size_t shards = supervisor->shards();
    std::vector<QueryState> states(idx.size());

    struct WorkerBatch {
      std::string payload;
      // (position in `idx`, position in that query's targets).
      std::vector<std::pair<size_t, size_t>> slots;
      std::vector<std::string> lines;  // One reply per slot, or none.
    };
    std::vector<WorkerBatch> batches(shards);

    // Plan and format: stamp each sub-scan with (shard, epoch) and append
    // it to its worker's payload. Queries keep batch order within each
    // payload, and each query's series is formatted once for all shards.
    for (size_t q = 0; q < idx.size(); ++q) {
      const ServeRequest& request = requests[idx[q]];
      QueryState& state = states[q];
      state.have_info = EnsureInfo(request.dataset, &state.info);
      if (serve::IsScanOp(request.op)) {
        for (size_t shard = 0; shard < shards; ++shard) {
          state.targets.push_back(shard);
        }
      } else {
        // dist/subsequence: only the owner shard holds the series.
        size_t owner = 0;
        if (state.have_info) {
          owner = serve::ShardRouter::Partition(request.index,
                                                state.info.epoch, shards);
        }
        state.targets.push_back(owner);
      }
      state.subs.resize(state.targets.size());
      state.have.assign(state.targets.size(), false);
      WARP_COUNT(obs::Counter::kClusterScatters);
      const serve::RequestSplice splice(request);
      const uint64_t epoch = state.have_info ? state.info.epoch : 0;
      for (size_t t = 0; t < state.targets.size(); ++t) {
        const size_t shard = state.targets[t];
        splice.AppendStamped(static_cast<long>(shard), epoch,
                             &batches[shard].payload);
        batches[shard].payload += '\n';
        batches[shard].slots.push_back({q, t});
      }
    }

    // Send and gather on one pooled link set. All payloads go out first
    // so the workers compute in parallel; the gather reads every sent
    // link in shard order. A worker that is down or fails mid-stream
    // leaves its batch without replies.
    {
      LinkLease lease(this);
      LinkSet& links = lease.links();
      std::vector<bool> sent(shards, false);
      for (size_t shard = 0; shard < shards; ++shard) {
        if (batches[shard].slots.empty()) continue;
        sent[shard] = LinkUp(links, shard) &&
                      links[shard].client.Send(batches[shard].payload);
      }
      for (size_t shard = 0; shard < shards; ++shard) {
        WorkerBatch& batch = batches[shard];
        if (sent[shard] &&
            !links[shard].client.ReadLines(batch.slots.size(),
                                           kGatherTimeoutMs, &batch.lines)) {
          batch.lines.clear();
        }
      }
    }

    // Parse: a shard with no replies costs every query it had; one reply
    // that fails to parse costs its query that shard. The survivors'
    // answers still merge, flagged.
    for (size_t shard = 0; shard < shards; ++shard) {
      const WorkerBatch& batch = batches[shard];
      for (size_t j = 0; j < batch.slots.size(); ++j) {
        const auto& [q, t] = batch.slots[j];
        std::string error;
        if (j < batch.lines.size() &&
            serve::ParseResponseLine(batch.lines[j], &states[q].subs[t],
                                     &error)) {
          states[q].have[t] = true;
        } else {
          states[q].missing.push_back(shard);
        }
      }
    }

    // Merge.
    for (size_t q = 0; q < idx.size(); ++q) {
      const size_t i = idx[q];
      if (retry != nullptr && HasEpochMismatch(states[q])) {
        std::lock_guard<std::mutex> lock(info_mutex);
        dataset_info.erase(requests[i].dataset);
        retry->push_back(i);
        continue;
      }
      (*merged)[i] = MergeQuery(requests[i], &states[q]);
    }
  }

  static bool HasEpochMismatch(const QueryState& state) {
    for (size_t t = 0; t < state.targets.size(); ++t) {
      if (state.have[t] && !state.subs[t].ok &&
          state.subs[t].error.rfind("epoch mismatch", 0) == 0) {
        return true;
      }
    }
    return false;
  }

  ServeResponse MergeQuery(const ServeRequest& request, QueryState* state) {
    std::sort(state->missing.begin(), state->missing.end());
    state->missing.erase(
        std::unique(state->missing.begin(), state->missing.end()),
        state->missing.end());

    ServeResponse out;
    out.id = request.id;
    out.op = request.op;

    // First worker error in shard order wins — every worker derives the
    // same validation error from the same request, so this matches the
    // single process's (single) error text.
    for (size_t t = 0; t < state->targets.size(); ++t) {
      if (state->have[t] && !state->subs[t].ok) {
        out.ok = false;
        out.error = state->subs[t].error;
        return out;
      }
    }

    if (!serve::IsScanOp(request.op)) {
      // Single-target ops: relay the owner's reply field-for-field. With
      // the owner down there is no partial answer to degrade to, so this
      // fails fast instead of guessing.
      if (!state->missing.empty() || !state->have[0]) {
        out.ok = false;
        out.error = "shard " + std::to_string(state->targets[0]) +
                    " is down; series unavailable";
        WARP_COUNT(obs::Counter::kClusterPartialReplies);
        return out;
      }
      out = state->subs[0];
      out.id = request.id;
      return out;
    }

    out.ok = true;
    bool any_partial = false;
    std::vector<std::vector<Neighbor>> parts;
    for (size_t t = 0; t < state->targets.size(); ++t) {
      if (!state->have[t]) continue;
      ServeResponse& sub = state->subs[t];
      out.scanned += sub.scanned;
      out.total += sub.total;
      any_partial |= sub.partial;
      parts.push_back(std::move(sub.neighbors));
    }
    if (!state->missing.empty() && state->have_info) {
      // Keep "of total candidates" meaning the whole dataset even while
      // some of it is unreachable.
      out.total = state->info.size;
    }
    out.partial =
        any_partial || !state->missing.empty() || out.scanned < out.total;
    out.shards_missing = state->missing;
    out.neighbors = serve::MergeNeighbors(request.op, request.k, parts);
    if (!state->missing.empty()) {
      WARP_COUNT(obs::Counter::kClusterPartialReplies);
    }
    return out;
  }

  // Executes one client batch of queries; fills one response line per
  // query, in order.
  void ExecuteQueries(const std::vector<ServeRequest>& requests,
                      std::vector<std::string>* out) {
    const Stopwatch gather_watch;
    std::vector<ServeResponse> merged(requests.size());
    std::vector<size_t> all(requests.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    std::vector<size_t> retry;
    ScatterPass(requests, all, &merged, &retry);
    if (!retry.empty()) {
      // The workers advanced past our cached epoch (a load raced this
      // batch). Re-plan against fresh info, once, with no control op in
      // flight, so every worker has finished that load and no other one
      // starts; a second mismatch is relayed as the error it is.
      std::lock_guard<std::mutex> lock(control_mutex);
      ScatterPass(requests, retry, &merged, nullptr);
    }
    WARP_HISTOGRAM_RECORD_US(obs::Histogram::kRouterGatherUs,
                             gather_watch.ElapsedMicros());
    out->reserve(requests.size());
    for (const ServeResponse& response : merged) {
      out->push_back(serve::FormatResponse(response));
    }
  }

  // ---- control ops ----

  // The router's own registries merged with every live worker's
  // snapshot; a worker that does not answer, or answers garbage, is left
  // out. The per-instance sections (cache, slowlog) then sum the workers'
  // and read zero with every worker down — the schema never changes.
  serve::Telemetry GatherTelemetry(LinkSet& links) {
    serve::Telemetry merged = serve::SnapshotRegistries();
    merged.shards = supervisor->shards();
    for (const WorkerReply& reply : Broadcast(links, kTelemetryRequest)) {
      serve::Telemetry worker;
      std::string error;
      if (serve::ParseTelemetryReply(reply.line, &worker, &error)) {
        merged.Merge(worker);
      }
    }
    return merged;
  }

  std::string HandleControl(const ParsedLine& parsed, const std::string& raw);
  std::string HandleInfo(LinkSet& links, const ParsedLine& parsed,
                         const std::string& raw);
  std::string HandleSlowlog(LinkSet& links, const ParsedLine& parsed,
                            const std::string& raw);
  std::string HandleLoadLike(LinkSet& links, const ParsedLine& parsed,
                             const std::string& raw);

  RouterOptions options;
  Supervisor* supervisor;

  // The link pool: sets not leased right now, and how many exist.
  std::mutex pool_mutex;
  std::condition_variable pool_ready;
  std::vector<LinkSet> idle_links;
  size_t open_link_sets = 0;

  // The dataset {epoch, size} cache.
  std::mutex info_mutex;
  std::map<std::string, DatasetInfo> dataset_info;

  // Held across each control op, so every worker sees loads in one order,
  // and across a batch's epoch-mismatch retry, so no load races it.
  std::mutex control_mutex;

  // Last: destroyed first, joining the connection threads that use every
  // member above.
  serve::FrontEnd front_end;
};

std::string Router::Impl::HandleControl(const ParsedLine& parsed,
                                        const std::string& raw) {
  if (parsed.control == ControlOp::kPing) {
    return serve::FormatAckLine(parsed.id, "ping");
  }
  if (parsed.control == ControlOp::kShutdown) {
    // Stop resurrecting first: the workers' clean exits below are not
    // failures.
    supervisor->DisableRestarts();
  }
  std::lock_guard<std::mutex> lock(control_mutex);
  LinkLease lease(this);
  LinkSet& links = lease.links();
  switch (parsed.control) {
    case ControlOp::kInfo:
      return HandleInfo(links, parsed, raw);
    case ControlOp::kStats:
      return serve::FormatStatsReply(parsed.id, GatherTelemetry(links));
    case ControlOp::kMetrics:
      return serve::FormatMetricsReply(parsed.id, GatherTelemetry(links));
    case ControlOp::kTelemetry:
      return serve::FormatTelemetryReply(parsed.id, GatherTelemetry(links));
    case ControlOp::kSlowlog:
      return HandleSlowlog(links, parsed, raw);
    case ControlOp::kLoad:
    case ControlOp::kLoadSnapshot:
      return HandleLoadLike(links, parsed, raw);
    case ControlOp::kSaveSnapshot: {
      std::string reply;
      if (!FirstWorkerRoundTrip(links, raw, &reply)) {
        return serve::FormatErrorLine(parsed.id, "no shard workers available");
      }
      return reply;
    }
    case ControlOp::kShutdown:
      // The workers' acks are read (best effort) so the send is not lost
      // to a closing socket.
      Broadcast(links, raw);
      for (Link& link : links) link.client.Disconnect();
      return serve::FormatAckLine(parsed.id, "shutdown");
    case ControlOp::kPing:
    case ControlOp::kNone:
      break;
  }
  return serve::FormatErrorLine(parsed.id, "internal: unhandled control op");
}

std::string Router::Impl::HandleInfo(LinkSet& links, const ParsedLine& parsed,
                                     const std::string& raw) {
  std::string reply;
  if (!FirstWorkerRoundTrip(links, raw, &reply)) {
    return serve::FormatErrorLine(parsed.id, "no shard workers available");
  }
  serve::JsonValue root;
  std::string error;
  if (!serve::ParseJson(reply, &root, &error)) {
    return serve::FormatErrorLine(parsed.id,
                                  "malformed worker info reply: " + error);
  }
  if (!root.BoolOr("ok", false)) return reply;  // e.g. unknown dataset.
  DatasetInfo info;
  if (!RememberInfo(root, &info)) {
    return serve::FormatErrorLine(
        parsed.id, "malformed worker info reply: missing or invalid fields");
  }
  // Re-emitted with the router's own port and without the worker_shard
  // marker: clients see the cluster as one server.
  return serve::FormatDatasetReply(parsed.id, ControlOp::kInfo, info,
                                   front_end.port());
}

std::string Router::Impl::HandleSlowlog(LinkSet& links,
                                        const ParsedLine& parsed,
                                        const std::string& raw) {
  uint64_t capacity = 0;
  std::vector<serve::SlowQueryRecord> entries;
  for (const WorkerReply& reply : Broadcast(links, raw)) {
    uint64_t worker_capacity = 0;
    std::vector<serve::SlowQueryRecord> worker_entries;
    std::string error;
    if (!serve::ParseSlowlogReply(reply.line, &worker_capacity,
                                  &worker_entries, &error)) {
      continue;
    }
    capacity += worker_capacity;
    entries.insert(entries.end(),
                   std::make_move_iterator(worker_entries.begin()),
                   std::make_move_iterator(worker_entries.end()));
  }
  // Same order the single server drains in: slowest engine time first
  // (ties keep shard order).
  std::stable_sort(entries.begin(), entries.end(),
                   [](const serve::SlowQueryRecord& a,
                      const serve::SlowQueryRecord& b) {
                     return a.engine_us > b.engine_us;
                   });
  return serve::FormatSlowlogReply(parsed.id, capacity, entries);
}

std::string Router::Impl::HandleLoadLike(LinkSet& links,
                                         const ParsedLine& parsed,
                                         const std::string& raw) {
  const std::string op_name =
      parsed.control == ControlOp::kLoad ? "load" : "load_snapshot";
  // Loads change the epoch sequence, which every worker must share: a
  // worker that misses one would refuse every stamped scan afterwards.
  // Refuse up front rather than let the cluster diverge.
  for (size_t shard = 0; shard < links.size(); ++shard) {
    if (!LinkUp(links, shard)) {
      return serve::FormatErrorLine(
          parsed.id, op_name + " requires every shard worker up; shard " +
                         std::to_string(shard) + " is down");
    }
  }
  const std::vector<WorkerReply> replies = Broadcast(links, raw);
  for (size_t shard = 0; shard < replies.size(); ++shard) {
    if (!replies[shard].sent) {
      return serve::FormatErrorLine(parsed.id,
                                    op_name + ": shard " +
                                        std::to_string(shard) +
                                        " worker failed");
    }
  }
  for (size_t shard = 0; shard < replies.size(); ++shard) {
    if (replies[shard].line.empty()) {
      return serve::FormatErrorLine(
          parsed.id,
          op_name + ": shard " + std::to_string(shard) +
              " worker failed mid-load; cluster epochs may have diverged");
    }
  }
  // Every worker executed the identical registration against the same
  // store state, so the replies must match byte-for-byte; a divergence
  // means the cluster is no longer in lockstep.
  for (size_t shard = 1; shard < replies.size(); ++shard) {
    if (replies[shard].line != replies[0].line) {
      return serve::FormatErrorLine(
          parsed.id,
          op_name + ": shard workers disagree; cluster epochs diverged");
    }
  }
  serve::JsonValue root;
  std::string error;
  DatasetInfo info;
  if (serve::ParseJson(replies[0].line, &root, &error)) {
    RememberInfo(root, &info);
  }
  return replies[0].line;
}

Router::Router(const RouterOptions& options, Supervisor* supervisor)
    : impl_(std::make_unique<Impl>(options, supervisor)) {}

Router::~Router() = default;

bool Router::Start(std::string* error) {
  return impl_->front_end.Start(static_cast<uint16_t>(impl_->options.port),
                                error);
}

int Router::port() const { return impl_->front_end.port(); }

void Router::Serve() { impl_->front_end.Serve(); }

void Router::RequestShutdown() { impl_->front_end.RequestShutdown(); }

int RunRouter(Router* router) {
  return router->impl_->front_end.Run(
      "warp_cluster", static_cast<uint16_t>(router->impl_->options.port));
}

}  // namespace cluster
}  // namespace warp
