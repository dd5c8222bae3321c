#include "warp/obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "warp/common/parallel.h"
#include "warp/common/table_printer.h"
#include "warp/obs/json_writer.h"

namespace warp {
namespace obs {

namespace {

void WriteCounterObject(JsonWriter& writer, const MetricsSnapshot& counters) {
  writer.BeginObject();
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (counters.values[i] == 0) continue;  // Sparse: nonzero only.
    writer.Key(CounterName(static_cast<Counter>(i))).Uint(counters.values[i]);
  }
  writer.EndObject();
}

void WriteTimingObject(JsonWriter& writer, const TimingSummary& timing) {
  writer.BeginObject()
      .Key("repetitions")
      .Int(timing.repetitions)
      .Key("mean_s")
      .Double(timing.mean)
      .Key("stddev_s")
      .Double(timing.stddev)
      .Key("min_s")
      .Double(timing.min)
      .Key("max_s")
      .Double(timing.max)
      .Key("median_s")
      .Double(timing.median)
      .Key("p95_s")
      .Double(timing.p95)
      .Key("p99_s")
      .Double(timing.p99)
      .Key("total_s")
      .Double(timing.total)
      .EndObject();
}

}  // namespace

void WriteHistogramObject(JsonWriter& writer, const HistogramData& data) {
  writer.BeginObject()
      .Key("count").Uint(data.count)
      .Key("sum").Uint(data.sum)
      .Key("mean").Double(data.Mean())
      .Key("p50").Uint(data.Percentile(0.50))
      .Key("p95").Uint(data.Percentile(0.95))
      .Key("p99").Uint(data.Percentile(0.99))
      .Key("buckets").BeginArray();
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (data.buckets[i] == 0) continue;  // Sparse: occupied buckets only.
    writer.BeginObject()
        .Key("le").Uint(HistogramBucketBound(i))
        .Key("n").Uint(data.buckets[i])
        .EndObject();
  }
  writer.EndArray().EndObject();
}

BenchReport::BenchReport(std::string experiment, std::string description)
    : experiment_(std::move(experiment)),
      description_(std::move(description)) {}

void BenchReport::AddConfig(const std::string& key, const std::string& value) {
  std::string quoted;
  quoted.push_back('"');
  quoted += JsonWriter::Escape(value);
  quoted.push_back('"');
  config_.push_back({key, std::move(quoted)});
}

void BenchReport::AddConfig(const std::string& key, const char* value) {
  AddConfig(key, std::string(value));
}

void BenchReport::AddConfig(const std::string& key, int64_t value) {
  config_.push_back({key, std::to_string(value)});
}

void BenchReport::AddConfig(const std::string& key, uint64_t value) {
  config_.push_back({key, std::to_string(value)});
}

void BenchReport::AddConfig(const std::string& key, int value) {
  AddConfig(key, static_cast<int64_t>(value));
}

void BenchReport::AddConfig(const std::string& key, double value) {
  config_.push_back({key, JsonWriter::FormatDouble(value)});
}

void BenchReport::AddConfig(const std::string& key, bool value) {
  config_.push_back({key, value ? "true" : "false"});
}

TimingSummary BenchReport::MeasureCase(const std::string& name,
                                       const std::function<void()>& fn,
                                       int repetitions, int warmup) {
  const MetricsSnapshot before = SnapshotCounters();
  const HistogramSnapshot histograms_before = SnapshotHistograms();
  const TimingSummary timing = MeasureRepeated(fn, repetitions, warmup);
  AddCase(name, timing, CountersSince(before),
          HistogramsSince(histograms_before));
  return timing;
}

void BenchReport::AddCase(const std::string& name, const TimingSummary& timing,
                          const MetricsSnapshot& counters) {
  AddCase(name, timing, counters, HistogramSnapshot{});
}

void BenchReport::AddCase(const std::string& name, const TimingSummary& timing,
                          const MetricsSnapshot& counters,
                          const HistogramSnapshot& histograms) {
  cases_.push_back({name, timing, counters, histograms});
}

std::string BenchReport::CounterTable() const {
  if (cases_.empty()) return "";

  std::vector<std::string> headers = {"counter"};
  for (const BenchCase& c : cases_) headers.push_back(c.name);
  TablePrinter table(std::move(headers));

  bool any_row = false;
  for (size_t i = 0; i < kNumCounters; ++i) {
    bool nonzero = false;
    for (const BenchCase& c : cases_) {
      if (c.counters.values[i] != 0) {
        nonzero = true;
        break;
      }
    }
    if (!nonzero) continue;
    any_row = true;
    std::vector<std::string> row = {CounterName(static_cast<Counter>(i))};
    for (const BenchCase& c : cases_) {
      row.push_back(std::to_string(c.counters.values[i]));
    }
    table.AddRow(std::move(row));
  }
  if (!any_row) return "(all work counters zero)\n";
  return table.ToString();
}

std::string BenchReport::TimingTable() const {
  TablePrinter table({"case", "mean ms", "std ms", "min ms", "med ms",
                      "p95 ms", "p99 ms", "max ms", "n"});
  for (const BenchCase& c : cases_) {
    table.AddRow({c.name, TablePrinter::FormatDouble(c.timing.mean * 1e3),
                  TablePrinter::FormatDouble(c.timing.stddev * 1e3),
                  TablePrinter::FormatDouble(c.timing.min * 1e3),
                  TablePrinter::FormatDouble(c.timing.median * 1e3),
                  TablePrinter::FormatDouble(c.timing.p95 * 1e3),
                  TablePrinter::FormatDouble(c.timing.p99 * 1e3),
                  TablePrinter::FormatDouble(c.timing.max * 1e3),
                  std::to_string(c.timing.repetitions)});
  }
  return table.ToString();
}

std::string BenchReport::HistogramTable() const {
  TablePrinter table({"case", "histogram", "count", "mean", "p50", "p95",
                      "p99"});
  bool any_row = false;
  for (const BenchCase& c : cases_) {
    for (size_t h = 0; h < kNumHistograms; ++h) {
      const HistogramData& data = c.histograms.series[h];
      if (data.Empty()) continue;
      any_row = true;
      table.AddRow({c.name, HistogramName(static_cast<Histogram>(h)),
                    std::to_string(data.count),
                    TablePrinter::FormatDouble(data.Mean()),
                    std::to_string(data.Percentile(0.50)),
                    std::to_string(data.Percentile(0.95)),
                    std::to_string(data.Percentile(0.99))});
    }
  }
  return any_row ? table.ToString() : "";
}

std::string BenchReport::ToJson() const {
  JsonWriter writer;
  writer.BeginObject()
      .Key("schema")
      .String("warp-bench-v1")
      .Key("experiment")
      .String(experiment_)
      .Key("description")
      .String(description_);

  writer.Key("config").BeginObject();
  for (const ConfigEntry& entry : config_) {
    writer.Key(entry.key).RawValue(entry.json_value);
  }
  writer.EndObject();

  writer.Key("host")
      .BeginObject()
      .Key("threads_default")
      .Uint(static_cast<uint64_t>(DefaultThreadCount()))
      .Key("hardware_concurrency")
      .Uint(static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Key("profiling")  // Always true; kept for the schema.
      .Bool(true)
#ifdef NDEBUG
      .Key("build")
      .String("release")
#else
      .Key("build")
      .String("debug")
#endif
      .Key("compiler")
      .String(__VERSION__)
      .EndObject();

  writer.Key("cases").BeginArray();
  for (const BenchCase& c : cases_) {
    writer.BeginObject().Key("name").String(c.name).Key("timing");
    WriteTimingObject(writer, c.timing);
    writer.Key("counters");
    WriteCounterObject(writer, c.counters);
    // Sparse like counters: nonempty histograms only, so non-serving
    // benches keep emitting an empty object here.
    writer.Key("histograms").BeginObject();
    for (size_t h = 0; h < kNumHistograms; ++h) {
      const HistogramData& data = c.histograms.series[h];
      if (data.Empty()) continue;
      writer.Key(HistogramName(static_cast<Histogram>(h)));
      WriteHistogramObject(writer, data);
    }
    writer.EndObject();
    writer.EndObject();
  }
  writer.EndArray();

  writer.EndObject();
  return writer.TakeOutput();
}

void BenchReport::Finish(const std::string& json_path) const {
  if (json_path.empty()) return;

  const std::string document = ToJson();
  std::FILE* file = std::fopen(json_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "error: cannot open --json output file %s\n",
                 json_path.c_str());
    std::exit(1);
  }
  const size_t written =
      std::fwrite(document.data(), 1, document.size(), file);
  const bool ok = written == document.size() &&
                  std::fputc('\n', file) != EOF && std::fclose(file) == 0;
  if (!ok) {
    std::fprintf(stderr, "error: short write to %s\n", json_path.c_str());
    std::exit(1);
  }
  std::printf("wrote JSON report: %s\n", json_path.c_str());
}

}  // namespace obs
}  // namespace warp
