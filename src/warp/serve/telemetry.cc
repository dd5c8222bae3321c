#include "warp/serve/telemetry.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "warp/obs/exposition.h"
#include "warp/obs/json_writer.h"
#include "warp/obs/report.h"
#include "warp/serve/wire.h"

namespace warp {
namespace serve {

namespace {

using obs::Counter;

// The counters `stats` summarizes, in its pinned key order.
constexpr Counter kStatsCounters[] = {
    Counter::kServeRequests,         Counter::kServeBatches,
    Counter::kServeBatchedQueries,   Counter::kServeDeadlineExceeded,
    Counter::kServeShardScans,       Counter::kServeSnapshotSaves,
    Counter::kServeSnapshotLoads,    Counter::kServeShed,
    Counter::kClusterScatters,       Counter::kClusterWorkerRestarts,
    Counter::kClusterPartialReplies};

const char* CounterAt(size_t i) {
  return obs::CounterName(static_cast<Counter>(i));
}
const char* GaugeAt(size_t i) {
  return obs::GaugeName(static_cast<obs::Gauge>(i));
}
const char* HistogramAt(size_t i) {
  return obs::HistogramName(static_cast<obs::Histogram>(i));
}

void BeginReply(obs::JsonWriter& writer, int64_t id, const char* op) {
  writer.BeginObject()
      .Key("id").Int(id)
      .Key("ok").Bool(true)
      .Key("op").String(op);
}

// `stats` and `telemetry` share one layout. Lossless mode (telemetry)
// writes every counter and every histogram as raw count/sum/buckets;
// stats writes the summary counters and the non-empty histograms in
// their rendered form (percentiles, sparse buckets).
std::string FormatSnapshot(int64_t id, const char* op, const Telemetry& t,
                           bool lossless) {
  obs::JsonWriter writer;
  BeginReply(writer, id, op);
  writer.Key("profiling").Bool(obs::kProfilingEnabled)
      .Key("counters").BeginObject();
  if (lossless) {
    for (size_t c = 0; c < obs::kNumCounters; ++c) {
      writer.Key(CounterAt(c)).Uint(t.counters.values[c]);
    }
  } else {
    for (const Counter counter : kStatsCounters) {
      writer.Key(obs::CounterName(counter)).Uint(t.counters.Get(counter));
    }
  }
  writer.EndObject()
      .Key("shards").BeginObject()
      .Key("count").Uint(t.shards)
      .EndObject()
      .Key("cache").BeginObject()
      .Key("size").Uint(t.cache.size)
      .Key("capacity").Uint(t.cache.capacity)
      .Key("hits").Uint(t.cache.hits)
      .Key("misses").Uint(t.cache.misses)
      .Key("evictions").Uint(t.cache.evictions)
      .EndObject()
      .Key("gauges").BeginObject();
  for (size_t g = 0; g < obs::kNumGauges; ++g) {
    writer.Key(GaugeAt(g)).Int(t.gauges.values[g]);
  }
  writer.EndObject().Key("histograms").BeginObject();
  for (size_t h = 0; h < obs::kNumHistograms; ++h) {
    const obs::HistogramData& data = t.histograms.series[h];
    if (lossless) {
      writer.Key(HistogramAt(h)).BeginObject()
          .Key("count").Uint(data.count)
          .Key("sum").Uint(data.sum)
          .Key("buckets").BeginArray();
      for (const uint64_t n : data.buckets) writer.Uint(n);
      writer.EndArray().EndObject();
    } else if (!data.Empty()) {
      writer.Key(HistogramAt(h));
      obs::WriteHistogramObject(writer, data);
    }
  }
  writer.EndObject()
      .Key("slowlog").BeginObject()
      .Key("capacity").Uint(t.slowlog_capacity)
      .Key("pending").Uint(t.slowlog_pending)
      .EndObject()
      .Key("datasets").BeginArray();
  for (const std::string& name : t.datasets) writer.String(name);
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

// Parses `line` into *root, which must be a successful `op` reply.
bool ParseReply(const std::string& line, const char* op, JsonValue* root,
                std::string* error) {
  if (!ParseJson(line, root, error)) return false;
  if (!root->BoolOr("ok", false) || root->StringOr("op", "") != op) {
    *error = root->StringOr("error", std::string("not a '") + op + "' reply");
    return false;
  }
  return true;
}

const JsonValue* Member(const JsonValue* object, const char* key) {
  return object == nullptr ? nullptr : object->Find(key);
}

// object[key] through the checked integer reader (wire.h); false when the
// object or member is missing or the value does not fit *out.
template <typename T>
bool Read(const JsonValue* object, const char* key, T* out) {
  const JsonValue* member = Member(object, key);
  return member != nullptr && ReadInteger(*member, out);
}

}  // namespace

void Telemetry::Merge(const Telemetry& other) {
  for (size_t c = 0; c < obs::kNumCounters; ++c) {
    counters.values[c] += other.counters.values[c];
  }
  for (size_t g = 0; g < obs::kNumGauges; ++g) {
    // Wrapping add: a hostile reading must not overflow a signed sum.
    gauges.values[g] = static_cast<int64_t>(
        static_cast<uint64_t>(gauges.values[g]) +
        static_cast<uint64_t>(other.gauges.values[g]));
  }
  for (size_t h = 0; h < obs::kNumHistograms; ++h) {
    obs::HistogramData& into = histograms.series[h];
    const obs::HistogramData& from = other.histograms.series[h];
    into.count += from.count;
    into.sum += from.sum;
    for (size_t b = 0; b < obs::kHistogramBuckets; ++b) {
      into.buckets[b] += from.buckets[b];
    }
  }
  cache.size += other.cache.size;
  cache.capacity += other.cache.capacity;
  cache.hits += other.cache.hits;
  cache.misses += other.cache.misses;
  cache.evictions += other.cache.evictions;
  slowlog_capacity += other.slowlog_capacity;
  slowlog_pending += other.slowlog_pending;
  std::vector<std::string> names;
  std::set_union(datasets.begin(), datasets.end(), other.datasets.begin(),
                 other.datasets.end(), std::back_inserter(names));
  datasets = std::move(names);
}

Telemetry SnapshotRegistries() {
  Telemetry t;
  t.counters = obs::SnapshotCounters();
  t.gauges = obs::SnapshotGauges();
  t.histograms = obs::SnapshotHistograms();
  return t;
}

std::string FormatStatsReply(int64_t id, const Telemetry& telemetry) {
  return FormatSnapshot(id, "stats", telemetry, /*lossless=*/false);
}

std::string FormatTelemetryReply(int64_t id, const Telemetry& telemetry) {
  return FormatSnapshot(id, "telemetry", telemetry, /*lossless=*/true);
}

std::string FormatMetricsReply(int64_t id, const Telemetry& t) {
  // The per-instance readings ride along as exposition extras.
  const auto as_int = [](uint64_t v) { return static_cast<int64_t>(v); };
  const std::vector<obs::ExpositionExtra> extras = {
      {"serve_result_cache_size", false, as_int(t.cache.size)},
      {"serve_result_cache_capacity", false, as_int(t.cache.capacity)},
      {"serve_result_cache_hits", true, as_int(t.cache.hits)},
      {"serve_result_cache_misses", true, as_int(t.cache.misses)},
      {"serve_result_cache_evictions", true, as_int(t.cache.evictions)},
      {"serve_slowlog_pending", false, as_int(t.slowlog_pending)},
  };
  obs::JsonWriter writer;
  BeginReply(writer, id, "metrics");
  writer.Key("format").String("warp-metrics-v1")
      .Key("body").String(obs::RenderMetricsText(t.counters, t.histograms,
                                                 t.gauges, extras))
      .EndObject();
  return writer.TakeOutput();
}

std::string FormatSlowlogReply(int64_t id, uint64_t capacity,
                               const std::vector<SlowQueryRecord>& entries) {
  obs::JsonWriter writer;
  BeginReply(writer, id, "slowlog");
  writer.Key("capacity").Uint(capacity).Key("entries").BeginArray();
  for (const SlowQueryRecord& record : entries) {
    writer.BeginObject()
        .Key("id").Int(record.id)
        .Key("op").String(record.op)
        .Key("dataset").String(record.dataset)
        .Key("measure").String(record.measure)
        .Key("engine_us").Double(record.engine_us)
        .Key("total_us").Double(record.total_us)
        .Key("cells").Uint(record.cells)
        .Key("scanned").Uint(record.scanned)
        .Key("total").Uint(record.total)
        .Key("partial").Bool(record.partial)
        .EndObject();
  }
  writer.EndArray().EndObject();
  return writer.TakeOutput();
}

bool ParseTelemetryReply(const std::string& line, Telemetry* out,
                         std::string* error) {
  JsonValue root;
  if (!ParseReply(line, "telemetry", &root, error)) return false;
  const JsonValue* counters = root.Find("counters");
  const JsonValue* gauges = root.Find("gauges");
  const JsonValue* histograms = root.Find("histograms");
  const JsonValue* cache = root.Find("cache");
  const JsonValue* slowlog = root.Find("slowlog");
  const JsonValue* datasets = root.Find("datasets");
  bool ok = Read(Member(&root, "shards"), "count", &out->shards) &&
            Read(cache, "size", &out->cache.size) &&
            Read(cache, "capacity", &out->cache.capacity) &&
            Read(cache, "hits", &out->cache.hits) &&
            Read(cache, "misses", &out->cache.misses) &&
            Read(cache, "evictions", &out->cache.evictions) &&
            Read(slowlog, "capacity", &out->slowlog_capacity) &&
            Read(slowlog, "pending", &out->slowlog_pending) &&
            datasets != nullptr && datasets->is_array();
  for (size_t c = 0; ok && c < obs::kNumCounters; ++c) {
    ok = Read(counters, CounterAt(c), &out->counters.values[c]);
  }
  for (size_t g = 0; ok && g < obs::kNumGauges; ++g) {
    ok = Read(gauges, GaugeAt(g), &out->gauges.values[g]);
  }
  for (size_t h = 0; ok && h < obs::kNumHistograms; ++h) {
    obs::HistogramData& data = out->histograms.series[h];
    const JsonValue* series = Member(histograms, HistogramAt(h));
    const JsonValue* buckets = Member(series, "buckets");
    ok = Read(series, "count", &data.count) &&
         Read(series, "sum", &data.sum) && buckets != nullptr &&
         buckets->AsArray().size() == obs::kHistogramBuckets;
    for (size_t b = 0; ok && b < obs::kHistogramBuckets; ++b) {
      ok = ReadInteger(buckets->AsArray()[b], &data.buckets[b]);
    }
  }
  out->datasets.clear();
  for (size_t i = 0; ok && i < datasets->AsArray().size(); ++i) {
    ok = datasets->AsArray()[i].is_string();
    out->datasets.push_back(datasets->AsArray()[i].AsString());
  }
  if (!ok) {
    *error = "malformed telemetry reply";
    return false;
  }
  // Merge relies on sorted, unique names; a reply is not trusted to be.
  std::sort(out->datasets.begin(), out->datasets.end());
  out->datasets.erase(std::unique(out->datasets.begin(), out->datasets.end()),
                      out->datasets.end());
  return true;
}

bool ParseSlowlogReply(const std::string& line, uint64_t* capacity,
                       std::vector<SlowQueryRecord>* entries,
                       std::string* error) {
  JsonValue root;
  if (!ParseReply(line, "slowlog", &root, error)) return false;
  const JsonValue* list = root.Find("entries");
  bool ok = Read(&root, "capacity", capacity) && list != nullptr &&
            list->is_array();
  entries->clear();
  for (size_t i = 0; ok && i < list->AsArray().size(); ++i) {
    const JsonValue& e = list->AsArray()[i];
    SlowQueryRecord record;
    ok = Read(&e, "id", &record.id) && Read(&e, "cells", &record.cells) &&
         Read(&e, "scanned", &record.scanned) &&
         Read(&e, "total", &record.total);
    record.op = e.StringOr("op", "");
    record.dataset = e.StringOr("dataset", "");
    record.measure = e.StringOr("measure", "");
    record.engine_us = e.NumberOr("engine_us", 0.0);
    record.total_us = e.NumberOr("total_us", 0.0);
    record.partial = e.BoolOr("partial", false);
    entries->push_back(std::move(record));
  }
  if (!ok) *error = "malformed slowlog reply";
  return ok;
}

}  // namespace serve
}  // namespace warp
