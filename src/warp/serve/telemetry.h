// One typed telemetry snapshot, with the `stats`, `metrics`, `telemetry`
// and `slowlog` reply documents built from it (docs/SERVING.md, "Serving
// telemetry").
//
// A plain server renders its own snapshot. The cluster router merges its
// own with every worker's — carried losslessly by the `telemetry` op:
// exact 64-bit integers, raw histogram buckets — and renders the merge
// with the same renderers, so both processes' documents share one schema
// by construction.

#ifndef WARP_SERVE_TELEMETRY_H_
#define WARP_SERVE_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"
#include "warp/serve/slowlog.h"

namespace warp {
namespace serve {

struct Telemetry {
  // The process-wide registries.
  obs::MetricsSnapshot counters;
  obs::GaugeSnapshot gauges;
  obs::HistogramSnapshot histograms;

  // One server's own objects; zero in a process that owns none.
  struct Cache {
    uint64_t size = 0;
    uint64_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  } cache;
  uint64_t slowlog_capacity = 0;
  uint64_t slowlog_pending = 0;
  uint64_t shards = 0;
  std::vector<std::string> datasets;  // Sorted, unique.

  // Order-independent: every tally sums (histograms bucket-wise) and the
  // dataset names union. `shards` is the receiver's topology and is kept.
  void Merge(const Telemetry& other);
};

// The calling process's registries; the per-instance fields stay zero.
Telemetry SnapshotRegistries();

// Reply lines, no trailing newline. `stats` carries the operator summary
// (its schema is pinned by tests/serve/stats_golden_test.cc), `metrics`
// the warp-metrics-v1 text, `telemetry` everything, losslessly.
std::string FormatStatsReply(int64_t id, const Telemetry& telemetry);
std::string FormatMetricsReply(int64_t id, const Telemetry& telemetry);
std::string FormatTelemetryReply(int64_t id, const Telemetry& telemetry);
std::string FormatSlowlogReply(int64_t id, uint64_t capacity,
                               const std::vector<SlowQueryRecord>& entries);

// Inverses of FormatTelemetryReply and FormatSlowlogReply (a record's
// `seq` is not on the wire). False with *error on malformed JSON, an
// error reply, or a missing or out-of-range field.
bool ParseTelemetryReply(const std::string& line, Telemetry* out,
                         std::string* error);
bool ParseSlowlogReply(const std::string& line, uint64_t* capacity,
                       std::vector<SlowQueryRecord>* entries,
                       std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_TELEMETRY_H_
