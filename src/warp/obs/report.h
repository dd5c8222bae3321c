// Bench report assembly: one object that accumulates named cases
// (timings + counter deltas + config), renders them as console tables,
// and serializes the whole run as a schema-stable JSON document
// ("warp-bench-v1", documented in docs/OBSERVABILITY.md).
//
// Usage, from a bench main:
//
//   obs::BenchReport report("E1 / Fig. 1", "FastDTW vs cDTW, UWave-like");
//   report.AddConfig("pairs", pairs);
//   report.MeasureCase("cdtw w=100", [&] { ... }, repetitions);
//   ...
//   std::fputs(report.CounterTable().c_str(), stdout);
//   report.Finish(json_path);  // No-op table-side; writes JSON if path set.

#ifndef WARP_OBS_REPORT_H_
#define WARP_OBS_REPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "warp/common/stopwatch.h"
#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"

namespace warp {
namespace obs {

class JsonWriter;

// One measured case: a named timing plus the counter work it did and the
// histogram samples recorded while it ran (serving benches: per-op
// latency and work distributions — empty outside the serve path).
struct BenchCase {
  std::string name;
  TimingSummary timing;
  MetricsSnapshot counters;
  HistogramSnapshot histograms;
};

// Serializes one histogram as the canonical JSON object shared by the
// stats op and warp-bench-v1 case sections: count/sum/mean/p50/p95/p99
// plus sparse per-bucket entries [{"le": <inclusive bound>, "n": ...}].
void WriteHistogramObject(JsonWriter& writer, const HistogramData& data);

class BenchReport {
 public:
  BenchReport(std::string experiment, std::string description);

  // Config entries preserve insertion order in the JSON document.
  void AddConfig(const std::string& key, const std::string& value);
  void AddConfig(const std::string& key, const char* value);
  void AddConfig(const std::string& key, int64_t value);
  void AddConfig(const std::string& key, uint64_t value);
  void AddConfig(const std::string& key, int value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, bool value);

  // Times `fn` via MeasureRepeated and records the case together with the
  // counter delta across all repetitions (including warmup — counters
  // measure total work performed under measurement).
  TimingSummary MeasureCase(const std::string& name,
                            const std::function<void()>& fn, int repetitions,
                            int warmup = 1);

  // Records an externally measured case (e.g. an all-pairs sweep timed as
  // one aggregate run; pair with SnapshotCounters/CountersSince). The
  // overload with `histograms` also attaches a histogram delta (pair with
  // SnapshotHistograms/HistogramsSince).
  void AddCase(const std::string& name, const TimingSummary& timing,
               const MetricsSnapshot& counters);
  void AddCase(const std::string& name, const TimingSummary& timing,
               const MetricsSnapshot& counters,
               const HistogramSnapshot& histograms);

  const std::vector<BenchCase>& cases() const { return cases_; }

  // Console rendering. CounterTable lists every counter that is nonzero
  // in at least one case, one column per case; TimingTable mirrors the
  // JSON timing block (mean/std/min/med/p95/max); HistogramTable lists
  // every nonempty histogram per case with count/mean/p50/p95/p99 (empty
  // string when no case recorded any histogram samples).
  std::string CounterTable() const;
  std::string TimingTable() const;
  std::string HistogramTable() const;

  // The full JSON document.
  std::string ToJson() const;

  // Writes ToJson() to `path` when non-empty; prints the destination on
  // success, prints the error and exits(1) on failure.
  void Finish(const std::string& json_path) const;

 private:
  struct ConfigEntry {
    std::string key;
    std::string json_value;  // Pre-serialized JSON scalar.
  };

  std::string experiment_;
  std::string description_;
  std::vector<ConfigEntry> config_;
  std::vector<BenchCase> cases_;
};

}  // namespace obs
}  // namespace warp

#endif  // WARP_OBS_REPORT_H_
