// warp_bench: the load generator and checker behind bench/suite/run.py.
//
// One invocation runs one workload from a seed for a fixed time, checks
// every answer it samples, and prints what it measured: human-readable
// lines first, then one JSON object on the last line with every metric
// (value, unit, sample count), the correctness verdict, and in traced runs
// the self time of every span name. run.py maps that object onto the
// metric names of BENCHMARK.json. README.md defines the workloads.
//
//   --workload=paper_quadrants|cascade_search|serve_single|serve_cluster
//   --seed=N        input seed (default 1)
//   --seconds=S     measured time (default 25, BENCHMARK.json's run_seconds)
//   --trace=0|1     traced run: spans + per-layer metrics
//   --params=k=v,…  frozen workload sizes and rates (workloads.json)
//   --bin-dir=DIR   where warp_serve and warp_cluster live
//   --work-dir=DIR  scratch directory for this run (created, then removed)
//   --trace-file=F  span file of a traced run
//   --threads=N     threads of the parallel sections (0 = min(4, cores))
//   --json=PATH     also write the final JSON object to PATH
//   --simd=MODE     on | off | auto, in-process and for warp_serve

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness/bench_flags.h"
#include "spans.h"
#include "suite.h"
#include "warp/obs/json_writer.h"

namespace warp {
namespace bench {
namespace suite {
namespace {

bool ParseParams(const std::string& text,
                 std::map<std::string, double>* params) {
  size_t start = 0;
  while (start < text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(start, comma - start);
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    char* end = nullptr;
    const std::string value = item.substr(eq + 1);
    const double number = std::strtod(value.c_str(), &end);
    if (value.empty() || end == nullptr || *end != '\0') return false;
    (*params)[item.substr(0, eq)] = number;
    start = comma + 1;
  }
  return true;
}

std::string RenderJson(const RunConfig& config, const Report& report,
                       const SpanSummary* spans) {
  obs::JsonWriter json;
  json.BeginObject()
      .Key("workload").String(config.workload)
      .Key("seed").Uint(config.seed)
      .Key("seconds").Double(config.seconds)
      .Key("trace").Bool(config.trace)
      .Key("threads").Uint(config.threads)
      .Key("simd").String(config.simd)
      .Key("simd_backend").String(simd::SimdBackendName())
      .Key("correct").Bool(report.correct())
      .Key("failures").BeginArray();
  for (const std::string& failure : report.failures()) json.String(failure);
  json.EndArray()
      .Key("attempted").Uint(report.attempted())
      .Key("failed").Uint(report.failed())
      .Key("metrics").BeginObject();
  for (const auto& [name, metric] : report.metrics()) {
    json.Key(name).BeginObject()
        .Key("value").Double(metric.value)
        .Key("unit").String(metric.unit)
        .Key("samples").Uint(metric.samples)
        .EndObject();
  }
  json.EndObject();
  if (spans != nullptr) {
    json.Key("spans").BeginObject()
        .Key("count").Uint(spans->spans)
        .Key("root_ms").Double(spans->root_ms)
        .Key("self_ms").Double(spans->self_ms)
        .Key("by_name").BeginObject();
    for (const auto& [name, row] : spans->by_name) {
      json.Key(name).BeginObject()
          .Key("count").Uint(row.count)
          .Key("total_ms").Double(row.total_ms)
          .Key("self_ms").Double(row.self_ms)
          .EndObject();
    }
    json.EndObject().EndObject();
  }
  json.EndObject();
  return json.TakeOutput();
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 25.0);
  config.trace = flags.GetInt("trace", 0) != 0;
  const int64_t threads = flags.GetInt("threads", 0);
  config.threads = threads > 0 ? static_cast<size_t>(threads)
                               : std::min<size_t>(4, DefaultThreadCount());
  config.bin_dir = flags.GetString("bin-dir", "");
  config.work_dir = flags.GetString("work-dir", "");
  config.trace_path = flags.GetString("trace-file", "");
  const std::string params = flags.GetString("params", "");
  const std::string json_path = JsonFlag(flags);
  config.simd = simd::SimdModeName(SimdFlag(flags));
  flags.Finalize();

  if (!ParseParams(params, &config.params)) {
    std::fprintf(stderr, "error: malformed --params=%s\n", params.c_str());
    return 2;
  }
  if (config.seconds <= 0.0) {
    std::fprintf(stderr, "error: --seconds must be positive\n");
    return 2;
  }
  const bool serve = config.workload == "serve_single" ||
                     config.workload == "serve_cluster";
  if (serve && (config.bin_dir.empty() || config.work_dir.empty())) {
    std::fprintf(stderr, "error: %s needs --bin-dir and --work-dir\n",
                 config.workload.c_str());
    return 2;
  }
  std::error_code fs_error;
  if (!config.work_dir.empty()) {
    std::filesystem::create_directories(config.work_dir, fs_error);
    if (fs_error) {
      std::fprintf(stderr, "error: cannot create %s\n",
                   config.work_dir.c_str());
      return 2;
    }
  }

  EnableSpans(false);
  Report report;
  if (config.workload == "paper_quadrants") {
    RunPaperQuadrants(config, &report);
  } else if (config.workload == "cascade_search") {
    RunCascadeSearch(config, &report);
  } else if (serve) {
    RunServe(config, config.workload == "serve_cluster", &report);
  } else {
    std::fprintf(stderr,
                 "error: --workload must be paper_quadrants, cascade_search, "
                 "serve_single or serve_cluster\n");
    return 2;
  }
  EnableSpans(false);
  if (!config.work_dir.empty()) {
    std::filesystem::remove_all(config.work_dir, fs_error);
  }

  SpanSummary summary;
  if (config.trace) {
    const std::vector<Span> spans = TakeSpans();
    summary = SummarizeSpans(spans);
    report.Check(summary.spans > 0, "traced run recorded no spans");
    report.Check(
        summary.root_ms > 0.0 &&
            std::abs(summary.self_ms - summary.root_ms) <=
                0.05 * summary.root_ms,
        "span self times do not sum to the root spans within 5%");
    if (!config.trace_path.empty()) {
      std::string error;
      report.Check(WriteSpanFile(config.trace_path, spans, &error), error);
    }
    std::printf("spans: %llu recorded, root %.1f ms, self-time sum %.1f ms\n",
                static_cast<unsigned long long>(summary.spans),
                summary.root_ms, summary.self_ms);
    std::printf("  %-34s %9s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
    for (const auto& [name, row] : summary.by_name) {
      std::printf("  %-34s %9llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms,
                  row.self_ms);
    }
  }

  for (const std::string& note : report.notes()) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("%-40s %16s %-10s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : report.metrics()) {
    std::printf("%-40s %16.6g %-10s %llu\n", name.c_str(), metric.value,
                metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  for (const std::string& failure : report.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }

  const std::string json =
      RenderJson(config, report, config.trace ? &summary : nullptr);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << '\n';
  }
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace suite
}  // namespace bench
}  // namespace warp

int main(int argc, char** argv) {
  return warp::bench::suite::Main(argc, argv);
}
