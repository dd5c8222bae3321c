#include "warp/serve/server.h"

#include <memory>
#include <utility>

#include "warp/core/dtw.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/batcher.h"
#include "warp/serve/front_end.h"
#include "warp/serve/protocol.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/result_cache.h"
#include "warp/serve/slowlog.h"
#include "warp/serve/snapshot.h"
#include "warp/serve/telemetry.h"
#include "warp/ts/io.h"

namespace warp {
namespace serve {

namespace {

std::vector<size_t> BandsFromFractions(const std::vector<double>& fractions,
                                       size_t length) {
  std::vector<size_t> bands;
  if (length == 0) return bands;
  bands.reserve(fractions.size());
  for (double fraction : fractions) {
    bands.push_back(BandFromFraction(fraction, length));
  }
  return bands;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        store(options.shards),
        cache(options.cache_capacity),
        slowlog(options.slowlog_capacity),
        engine(&store, options.cache_capacity > 0 ? &cache : nullptr,
               options.threads,
               options.slowlog_capacity > 0 ? &slowlog : nullptr),
        batcher(&engine, options.max_queue_depth),
        front_end(FrontEndHandlers{
            [this](std::vector<ServeRequest> queries,
                   const std::vector<double>& parse_us,
                   std::vector<std::string>* replies) {
              HandleQueries(std::move(queries), parse_us, replies);
            },
            [this](const ParsedLine& parsed, const std::string& /*raw*/) {
              return HandleControl(parsed);
            }}) {}

  void HandleQueries(std::vector<ServeRequest> queries,
                     const std::vector<double>& parse_us,
                     std::vector<std::string>* replies);
  std::string HandleControl(const ParsedLine& parsed);
  Telemetry Snapshot() const;
  std::string DatasetReply(const ParsedLine& parsed,
                           const StoredDataset& snapshot) const {
    return FormatDatasetReply(
        parsed.id, parsed.control,
        {snapshot.name, snapshot.size(), snapshot.uniform_length,
         snapshot.epoch, snapshot.shard_count(),
         {snapshot.bands.begin(), snapshot.bands.end()}},
        front_end.port(), options.worker_shard);
  }

  // Registration shared by the load ops and the preload API: a UCR file
  // indexed at `fractions` (empty = options.band_fractions), or a
  // warp-snap-v1 file under `name` (empty = its stored name). Null and
  // *error on failure, with the store unchanged.
  std::shared_ptr<const StoredDataset> LoadUcr(
      const std::string& name, const std::string& path,
      const std::vector<double>& fractions, std::string* error);
  std::shared_ptr<const StoredDataset> LoadSnap(const std::string& name,
                                                const std::string& path,
                                                std::string* error);

  ServerOptions options;
  DatasetStore store;
  ResultCache cache;
  SlowQueryLog slowlog;
  QueryEngine engine;
  Batcher batcher;
  // Last: destroyed first, joining the connection threads that use every
  // member above.
  FrontEnd front_end;
};

void Server::Impl::HandleQueries(std::vector<ServeRequest> queries,
                                 const std::vector<double>& parse_us,
                                 std::vector<std::string>* replies) {
  replies->resize(queries.size());
  std::vector<ServeRequest> batch;
  std::vector<size_t> slot;  // Parallel to `batch`.
  batch.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const long stamped = queries[i].shard_filter;
    if (options.worker_shard >= 0 && stamped != options.worker_shard) {
      // Shard workers answer only sub-scans stamped for their own
      // shard: a mis-routed (or unstamped) query would silently cover
      // the wrong candidate set, so it is refused instead.
      (*replies)[i] = FormatErrorLine(
          queries[i].id,
          "mis-routed sub-scan: this worker serves shard " +
              std::to_string(options.worker_shard) + " of " +
              std::to_string(options.shards) + ", request stamped " +
              (stamped < 0 ? std::string("no shard")
                           : "shard " + std::to_string(stamped)));
      continue;
    }
    batch.push_back(std::move(queries[i]));
    slot.push_back(i);
  }
  if (batch.empty()) return;
  std::vector<ServeResponse> responses;
  batcher.Execute(batch, &responses);
  for (size_t j = 0; j < responses.size(); ++j) {
    responses[j].trace.parse_us = parse_us[slot[j]];
    (*replies)[slot[j]] = FormatResponse(responses[j]);
  }
}

Telemetry Server::Impl::Snapshot() const {
  // The process-wide registries, plus this server's own objects: the
  // ResultCache instance is the single source of truth for its own
  // behavior (the registry's serve_cache_* counters aggregate across
  // every cache in the process).
  Telemetry telemetry = SnapshotRegistries();
  telemetry.cache = {cache.size(), cache.capacity(), cache.hits(),
                     cache.misses(), cache.evictions()};
  telemetry.slowlog_capacity = slowlog.capacity();
  telemetry.slowlog_pending = slowlog.size();
  telemetry.shards = store.shard_count();
  telemetry.datasets = store.Names();
  return telemetry;
}

std::shared_ptr<const StoredDataset> Server::Impl::LoadUcr(
    const std::string& name, const std::string& path,
    const std::vector<double>& fractions, std::string* error) {
  Dataset dataset;
  if (!LoadUcrFile(path, &dataset, error)) return nullptr;
  const size_t length = dataset.UniformLength();
  return store.Register(
      name, std::move(dataset),
      BandsFromFractions(
          fractions.empty() ? options.band_fractions : fractions, length));
}

std::shared_ptr<const StoredDataset> Server::Impl::LoadSnap(
    const std::string& name, const std::string& path, std::string* error) {
  DatasetIndex index;
  SnapshotMeta meta;
  if (!LoadSnapshot(path, &index, &meta, error)) return nullptr;
  return store.RegisterIndex(name.empty() ? meta.dataset : name,
                             std::move(index));
}

std::string Server::Impl::HandleControl(const ParsedLine& parsed) {
  switch (parsed.control) {
    case ControlOp::kPing:
      return FormatAckLine(parsed.id, "ping");
    case ControlOp::kInfo: {
      std::shared_ptr<const StoredDataset> snapshot =
          store.Get(parsed.dataset);
      if (snapshot == nullptr) {
        return FormatErrorLine(parsed.id,
                               "unknown dataset: '" + parsed.dataset + "'");
      }
      return DatasetReply(parsed, *snapshot);
    }
    case ControlOp::kStats:
      return FormatStatsReply(parsed.id, Snapshot());
    case ControlOp::kMetrics:
      return FormatMetricsReply(parsed.id, Snapshot());
    case ControlOp::kTelemetry:
      return FormatTelemetryReply(parsed.id, Snapshot());
    case ControlOp::kSlowlog:
      return FormatSlowlogReply(parsed.id, slowlog.capacity(),
                                slowlog.Drain());
    case ControlOp::kLoad: {
      std::string error;
      std::shared_ptr<const StoredDataset> snapshot =
          LoadUcr(parsed.dataset, parsed.path, parsed.band_fractions, &error);
      if (snapshot == nullptr) {
        // The ts/io error (missing file, truncated row, non-finite value)
        // goes back to the client verbatim instead of killing the server.
        return FormatErrorLine(parsed.id, "load failed: " + error);
      }
      return DatasetReply(parsed, *snapshot);
    }
    case ControlOp::kSaveSnapshot: {
      std::shared_ptr<const StoredDataset> snapshot =
          store.Get(parsed.dataset);
      if (snapshot == nullptr) {
        return FormatErrorLine(parsed.id,
                               "unknown dataset: '" + parsed.dataset + "'");
      }
      std::string error;
      SnapshotMeta meta;
      if (!SaveSnapshot(*snapshot, parsed.path, &error, &meta)) {
        return FormatErrorLine(parsed.id, "save_snapshot failed: " + error);
      }
      obs::JsonWriter writer;
      writer.BeginObject()
          .Key("id").Int(parsed.id)
          .Key("ok").Bool(true)
          .Key("op").String("save_snapshot")
          .Key("dataset").String(meta.dataset)
          .Key("path").String(parsed.path)
          .Key("series").Uint(meta.series)
          .Key("payload_bytes").Uint(meta.payload_bytes)
          .EndObject();
      return writer.TakeOutput();
    }
    case ControlOp::kLoadSnapshot: {
      std::string error;
      std::shared_ptr<const StoredDataset> snapshot =
          LoadSnap(parsed.dataset, parsed.path, &error);
      if (snapshot == nullptr) {
        // Refuse-don't-guess: the snapshot layer's precise reason goes
        // back to the client; the store is untouched.
        return FormatErrorLine(parsed.id, "load_snapshot failed: " + error);
      }
      return DatasetReply(parsed, *snapshot);
    }
    case ControlOp::kShutdown:
      return FormatAckLine(parsed.id, "shutdown");
    case ControlOp::kNone:
      break;
  }
  return FormatErrorLine(parsed.id, "internal: unhandled control op");
}

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() = default;

void Server::RegisterDataset(const std::string& name, Dataset dataset) {
  const size_t length = dataset.UniformLength();
  impl_->store.Register(
      name, std::move(dataset),
      BandsFromFractions(impl_->options.band_fractions, length));
}

bool Server::LoadDataset(const std::string& name, const std::string& path,
                         const std::vector<double>& band_fractions,
                         std::string* error) {
  return impl_->LoadUcr(name, path, band_fractions, error) != nullptr;
}

bool Server::LoadSnapshotFile(const std::string& name,
                              const std::string& path, std::string* error) {
  return impl_->LoadSnap(name, path, error) != nullptr;
}

bool Server::LoadSnapshotDir(const std::string& dir, std::string* error) {
  std::vector<std::string> paths;
  if (!ListSnapshotFiles(dir, &paths, error)) return false;
  for (const std::string& path : paths) {
    if (!LoadSnapshotFile("", path, error)) return false;
  }
  return true;
}

bool Server::Start(std::string* error) {
  return impl_->front_end.Start(impl_->options.port, error);
}

int Server::port() const { return impl_->front_end.port(); }

void Server::Serve() { impl_->front_end.Serve(); }

void Server::RequestShutdown() { impl_->front_end.RequestShutdown(); }

const DatasetStore& Server::store() const { return impl_->store; }

int RunServer(Server* server) {
  return server->impl_->front_end.Run("warp_serve",
                                      server->impl_->options.port);
}

}  // namespace serve
}  // namespace warp
