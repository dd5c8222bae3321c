#include "warp/serve/protocol.h"

#include <limits>

#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {

namespace {

// Reads the optional integer member `key` through the checked reader
// (wire.h); an absent member keeps *value. `what` names the rule in the
// client-facing error.
template <typename T>
bool ReadIntegerMember(const JsonValue& object, const std::string& key,
                       const char* what, T* value, std::string* error,
                       T lo = std::numeric_limits<T>::min()) {
  const JsonValue* member = object.Find(key);
  if (member == nullptr || ReadInteger(*member, value, lo)) return true;
  *error = "'" + key + "' must be " + what;
  return false;
}

constexpr char kUnsigned[] = "a non-negative integer";

// A reply member FormatResponse always writes: a reply without it is
// refused, so a gather never merges a missing count or index as 0.
template <typename T>
bool ReadRequiredInteger(const JsonValue& object, const std::string& key,
                         const char* what, T* value, std::string* error) {
  const JsonValue* member = object.Find(key);
  if (member != nullptr && ReadInteger(*member, value)) return true;
  *error = "'" + key + "' must be " + what;
  return false;
}

// A reply flag FormatResponse always writes: a JSON bool, never a
// number or a string read as one.
bool ReadRequiredBool(const JsonValue& object, const std::string& key,
                      bool* value, std::string* error) {
  const JsonValue* member = object.Find(key);
  if (member != nullptr && member->is_bool()) {
    *value = member->AsBool();
    return true;
  }
  *error = "'" + key + "' must be true or false";
  return false;
}

// A reply's distance must be present and a JSON number: FormatDouble
// spells a non-finite value null, and a gather must not merge a missing
// distance as 0.
bool ReadDistanceMember(const JsonValue& object, double* value,
                        std::string* error) {
  const JsonValue* member = object.Find("distance");
  if (member == nullptr || !member->is_number()) {
    *error = "'distance' must be a number";
    return false;
  }
  *value = member->AsNumber();
  return true;
}

}  // namespace

bool ParseRequestLine(const std::string& line, ParsedLine* out,
                      std::string* error) {
  JsonValue root;
  if (!ParseJson(line, &root, error)) {
    *error = "malformed JSON: " + *error;
    return false;
  }
  if (!root.is_object()) {
    *error = "request must be a JSON object";
    return false;
  }
  if (!ReadIntegerMember(root, "id", "an integer", &out->id, error)) {
    return false;
  }
  out->request.id = out->id;

  const std::string op = root.StringOr("op", "");
  if (op.empty()) {
    *error = "request missing 'op'";
    return false;
  }

  // Control operations.
  if (op == "ping") { out->control = ControlOp::kPing; return true; }
  if (op == "stats") { out->control = ControlOp::kStats; return true; }
  if (op == "metrics") { out->control = ControlOp::kMetrics; return true; }
  if (op == "slowlog") { out->control = ControlOp::kSlowlog; return true; }
  if (op == "telemetry") {
    out->control = ControlOp::kTelemetry;
    return true;
  }
  if (op == "shutdown") { out->control = ControlOp::kShutdown; return true; }
  if (op == "save_snapshot") {
    out->control = ControlOp::kSaveSnapshot;
    out->dataset = root.StringOr("dataset", "");
    out->path = root.StringOr("path", "");
    if (out->dataset.empty()) {
      *error = "'save_snapshot' requires 'dataset'";
      return false;
    }
    if (out->path.empty()) {
      *error = "'save_snapshot' requires 'path'";
      return false;
    }
    return true;
  }
  if (op == "load_snapshot") {
    out->control = ControlOp::kLoadSnapshot;
    out->dataset = root.StringOr("dataset", "");  // Optional rename.
    out->path = root.StringOr("path", "");
    if (out->path.empty()) {
      *error = "'load_snapshot' requires 'path'";
      return false;
    }
    return true;
  }
  if (op == "info" || op == "load") {
    out->control = op == "info" ? ControlOp::kInfo : ControlOp::kLoad;
    out->dataset = root.StringOr("dataset", "");
    if (out->dataset.empty()) {
      *error = "'" + op + "' requires 'dataset'";
      return false;
    }
    if (op == "load") {
      out->path = root.StringOr("path", "");
      if (out->path.empty()) {
        *error = "'load' requires 'path'";
        return false;
      }
      if (const JsonValue* bands = root.Find("bands")) {
        if (!bands->is_array()) {
          *error = "'bands' must be an array of window fractions";
          return false;
        }
        for (const JsonValue& band : bands->AsArray()) {
          if (!band.is_number() ||
              !(band.AsNumber() >= 0.0 && band.AsNumber() <= 1.0)) {
            *error = "'bands' entries must be fractions from 0 to 1";
            return false;
          }
          out->band_fractions.push_back(band.AsNumber());
        }
      }
    }
    return true;
  }

  // Engine queries.
  out->control = ControlOp::kNone;
  ServeRequest& request = out->request;
  if (!ParseQueryOp(op, &request.op)) {
    *error = "unknown op: '" + op + "'";
    return false;
  }
  request.dataset = root.StringOr("dataset", "");
  if (request.dataset.empty()) {
    *error = "query missing 'dataset'";
    return false;
  }
  request.measure = root.StringOr("measure", "cdtw");

  MeasureParams& params = request.params;
  params.window_fraction = root.NumberOr("window", params.window_fraction);
  if (!(params.window_fraction >= 0.0 && params.window_fraction <= 1.0)) {
    *error = "'window' must be a fraction from 0 to 1";
    return false;
  }
  if (!ReadIntegerMember(root, "band", "a non-negative cell count",
                         &params.band_cells, error, 0L)) {
    return false;
  }
  const std::string cost = root.StringOr("cost", "squared");
  if (cost == "squared") {
    params.cost = CostKind::kSquared;
  } else if (cost == "absolute") {
    params.cost = CostKind::kAbsolute;
  } else {
    *error = "unknown cost: '" + cost + "'";
    return false;
  }
  params.wdtw_g = root.NumberOr("g", params.wdtw_g);
  params.wdtw_full_band = root.BoolOr("full_band", params.wdtw_full_band);
  params.adtw_omega = root.NumberOr("omega", params.adtw_omega);
  params.adtw_ratio = root.NumberOr("ratio", params.adtw_ratio);
  params.lcss_epsilon = root.NumberOr("epsilon", params.lcss_epsilon);
  params.erp_gap = root.NumberOr("gap", params.erp_gap);
  params.msm_cost = root.NumberOr("c", params.msm_cost);
  if (!ReadIntegerMember(root, "radius", kUnsigned, &params.fastdtw_radius,
                         error) ||
      !ReadIntegerMember(root, "k", kUnsigned, &request.k, error) ||
      !ReadIntegerMember(root, "index", kUnsigned, &request.index, error)) {
    return false;
  }
  request.threshold = root.NumberOr("threshold", request.threshold);
  request.deadline_ms = root.NumberOr("deadline_ms", request.deadline_ms);
  request.znormalize = root.BoolOr("znorm", request.znormalize);
  request.trace = root.BoolOr("trace", request.trace);

  // Cluster scatter stamp: a router targets one worker's shard at one
  // dataset epoch; the worker refuses anything else (query_engine.cc).
  if (!ReadIntegerMember(root, "shard", kUnsigned, &request.shard_filter,
                         error, 0L) ||
      !ReadIntegerMember(root, "shard_epoch", kUnsigned,
                         &request.require_epoch, error)) {
    return false;
  }

  const JsonValue* query = root.Find("query");
  if (query == nullptr || !query->is_array()) {
    *error = "query ops require a 'query' array of numbers";
    return false;
  }
  request.query.reserve(query->AsArray().size());
  for (const JsonValue& v : query->AsArray()) {
    if (!v.is_number()) {
      *error = "'query' entries must be numbers";
      return false;
    }
    request.query.push_back(v.AsNumber());
  }
  return true;
}

std::string FormatResponse(const ServeResponse& response) {
  // Serialization is the one stage that cannot time itself from outside
  // (the caller would have to re-serialize to measure it), so the clock
  // runs here: body first, then — only when the request asked for a
  // trace — the trace object goes last with the just-measured value.
  const Stopwatch serialize_watch;
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(response.id)
      .Key("ok").Bool(response.ok);
  if (!response.ok) {
    writer.Key("error").String(response.error).EndObject();
    return writer.TakeOutput();
  }
  writer.Key("op").String(QueryOpName(response.op));
  writer.Key("partial").Bool(response.partial);
  writer.Key("scanned").Uint(response.scanned);
  writer.Key("total").Uint(response.total);
  switch (response.op) {
    case QueryOp::k1Nn:
    case QueryOp::kKnn:
    case QueryOp::kRange:
      writer.Key("neighbors").BeginArray();
      for (const Neighbor& n : response.neighbors) {
        writer.BeginObject()
            .Key("index").Uint(n.index)
            .Key("label").Int(n.label)
            .Key("distance").Double(n.distance)
            .EndObject();
      }
      writer.EndArray();
      break;
    case QueryOp::kDist:
      writer.Key("distance").Double(response.distance);
      break;
    case QueryOp::kSubsequence:
      writer.Key("position").Uint(response.position);
      writer.Key("distance").Double(response.distance);
      break;
  }
  if (!response.shards_missing.empty()) {
    // Cluster degradation marker; absent from single-process servers,
    // so the pre-cluster response shape (and its goldens) is unchanged.
    writer.Key("shards_missing").BeginArray();
    for (const size_t shard : response.shards_missing) writer.Uint(shard);
    writer.EndArray();
  }
  const double serialize_us = serialize_watch.ElapsedMicros();
  WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageSerialize,
                           serialize_us);
  if (response.trace.requested) {
    // Wall-clock echo; never part of goldens or the cache key. `cells`
    // is the one deterministic member (DP work, 0 on cache hits).
    const StageTrace& t = response.trace;
    writer.Key("trace").BeginObject()
        .Key("cached").Bool(t.from_cache)
        .Key("parse_us").Double(t.parse_us)
        .Key("cache_us").Double(t.cache_us)
        .Key("queue_us").Double(t.queue_us)
        .Key("engine_us").Double(t.engine_us)
        .Key("merge_us").Double(t.merge_us)
        .Key("serialize_us").Double(serialize_us)
        .Key("cells").Uint(t.cells)
        .EndObject();
  }
  writer.EndObject();
  return writer.TakeOutput();
}

std::string FormatErrorLine(int64_t id, const std::string& error) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("ok").Bool(false)
      .Key("error").String(error)
      .EndObject();
  return writer.TakeOutput();
}

std::string FormatAckLine(int64_t id, const char* op) {
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("ok").Bool(true)
      .Key("op").String(op)
      .EndObject();
  return writer.TakeOutput();
}

std::string FormatDatasetReply(int64_t id, ControlOp op,
                               const DatasetInfo& info, int port,
                               long worker_shard) {
  const char* name = op == ControlOp::kInfo   ? "info"
                     : op == ControlOp::kLoad ? "load"
                                              : "load_snapshot";
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("ok").Bool(true)
      .Key("op").String(name)
      .Key("dataset").String(info.dataset)
      .Key("size").Uint(info.size)
      .Key("length").Uint(info.length)
      .Key("epoch").Uint(info.epoch);
  if (op != ControlOp::kLoad) writer.Key("shards").Uint(info.shards);
  if (op == ControlOp::kInfo) {
    writer.Key("port").Int(port);
    if (worker_shard >= 0) writer.Key("worker_shard").Int(worker_shard);
    writer.Key("bands").BeginArray();
    for (const uint64_t band : info.bands) writer.Uint(band);
    writer.EndArray();
  }
  writer.EndObject();
  return writer.TakeOutput();
}

bool ReadDatasetInfo(const JsonValue& reply, DatasetInfo* out) {
  std::string error;
  const JsonValue* size = reply.Find("size");
  const JsonValue* epoch = reply.Find("epoch");
  out->dataset = reply.StringOr("dataset", "");
  if (out->dataset.empty() || size == nullptr || epoch == nullptr ||
      !ReadInteger(*size, &out->size) || !ReadInteger(*epoch, &out->epoch) ||
      !ReadIntegerMember(reply, "length", kUnsigned, &out->length, &error) ||
      !ReadIntegerMember(reply, "shards", kUnsigned, &out->shards, &error)) {
    return false;
  }
  out->bands.clear();
  if (const JsonValue* bands = reply.Find("bands")) {
    for (const JsonValue& band : bands->AsArray()) {
      out->bands.emplace_back();
      if (!ReadInteger(band, &out->bands.back())) return false;
    }
  }
  return true;
}

std::string FormatRequest(const ServeRequest& request) {
  std::string line;
  RequestSplice(request).AppendStamped(request.shard_filter,
                                       request.require_epoch, &line);
  return line;
}

RequestSplice::RequestSplice(const ServeRequest& request) {
  obs::JsonWriter head;
  head.BeginObject()
      .Key("id").Int(request.id)
      .Key("op").String(QueryOpName(request.op))
      .Key("dataset").String(request.dataset)
      .Key("measure").String(request.measure);
  const MeasureParams& params = request.params;
  head.Key("window").Double(params.window_fraction);
  if (params.band_cells >= 0) {
    head.Key("band").Uint(static_cast<uint64_t>(params.band_cells));
  }
  head.Key("cost").String(
      params.cost == CostKind::kSquared ? "squared" : "absolute");
  head.Key("g").Double(params.wdtw_g);
  head.Key("full_band").Bool(params.wdtw_full_band);
  head.Key("omega").Double(params.adtw_omega);
  head.Key("ratio").Double(params.adtw_ratio);
  head.Key("epsilon").Double(params.lcss_epsilon);
  head.Key("gap").Double(params.erp_gap);
  head.Key("c").Double(params.msm_cost);
  head.Key("radius").Uint(params.fastdtw_radius);
  head.Key("k").Uint(request.k);
  head.Key("index").Uint(request.index);
  head.Key("threshold").Double(request.threshold);
  head.Key("deadline_ms").Double(request.deadline_ms);
  head.Key("znorm").Bool(request.znormalize);
  head.Key("trace").Bool(request.trace);
  head_ = head.EndObject().TakeOutput();
  head_.pop_back();  // Left open for the stamp and the query.

  obs::JsonWriter query;
  query.BeginArray();
  for (const double value : request.query) query.Double(value);
  tail_ = ",\"query\":";
  tail_ += query.EndArray().TakeOutput();
  tail_ += '}';
}

void RequestSplice::AppendStamped(long shard, uint64_t epoch,
                                  std::string* out) const {
  *out += head_;
  if (shard >= 0) {
    *out += ",\"shard\":";
    *out += std::to_string(shard);
  }
  if (epoch != 0) {
    *out += ",\"shard_epoch\":";
    *out += std::to_string(epoch);
  }
  *out += tail_;
}

bool ParseResponseLine(const std::string& line, ServeResponse* out,
                       std::string* error) {
  JsonValue root;
  if (!ParseJson(line, &root, error)) {
    *error = "malformed response JSON: " + *error;
    return false;
  }
  if (!root.is_object()) {
    *error = "response must be a JSON object";
    return false;
  }
  if (!ReadIntegerMember(root, "id", "an integer", &out->id, error)) {
    return false;
  }
  if (!ReadRequiredBool(root, "ok", &out->ok, error)) return false;
  if (!out->ok) {
    // An error reply is relayed to the client as it stands, so it must
    // say what went wrong; one that does not counts its shard missing.
    const JsonValue* message = root.Find("error");
    if (message == nullptr || !message->is_string()) {
      *error = "'error' must be a string";
      return false;
    }
    out->error = message->AsString();
    return true;
  }
  const std::string op = root.StringOr("op", "");
  if (!ParseQueryOp(op, &out->op)) {
    *error = "response has unknown op: '" + op + "'";
    return false;
  }
  if (!ReadRequiredBool(root, "partial", &out->partial, error) ||
      !ReadRequiredInteger(root, "scanned", kUnsigned, &out->scanned,
                           error) ||
      !ReadRequiredInteger(root, "total", kUnsigned, &out->total, error)) {
    return false;
  }
  if (IsScanOp(out->op)) {
    const JsonValue* neighbors = root.Find("neighbors");
    if (neighbors == nullptr || !neighbors->is_array()) {
      *error = "'neighbors' must be an array";
      return false;
    }
    out->neighbors.reserve(neighbors->AsArray().size());
    for (const JsonValue& entry : neighbors->AsArray()) {
      if (!entry.is_object()) {
        *error = "'neighbors' entries must be objects";
        return false;
      }
      Neighbor neighbor;
      if (!ReadRequiredInteger(entry, "index", kUnsigned, &neighbor.index,
                               error) ||
          !ReadRequiredInteger(entry, "label", "an integer", &neighbor.label,
                               error) ||
          !ReadDistanceMember(entry, &neighbor.distance, error)) {
        return false;
      }
      out->neighbors.push_back(neighbor);
    }
  } else if (!ReadDistanceMember(root, &out->distance, error)) {
    return false;
  }
  // Only a subsequence reply carries a position; a bad one fails any reply.
  if (out->op == QueryOp::kSubsequence) {
    if (!ReadRequiredInteger(root, "position", kUnsigned, &out->position,
                             error)) {
      return false;
    }
  } else if (!ReadIntegerMember(root, "position", kUnsigned, &out->position,
                                error)) {
    return false;
  }
  if (const JsonValue* missing = root.Find("shards_missing")) {
    if (!missing->is_array()) {
      *error = "'shards_missing' must be an array";
      return false;
    }
    for (const JsonValue& shard : missing->AsArray()) {
      size_t index = 0;
      if (!ReadInteger(shard, &index)) {
        *error = "'shards_missing' entries must be non-negative integers";
        return false;
      }
      out->shards_missing.push_back(index);
    }
  }
  return true;
}

}  // namespace serve
}  // namespace warp
