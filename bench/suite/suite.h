// Shared plumbing of the warp_bench workloads: the run configuration, the
// report each workload fills, and the small statistics and process helpers
// they all use. README.md in this directory defines every workload and
// metric.

#ifndef WARP_BENCH_SUITE_SUITE_H_
#define WARP_BENCH_SUITE_SUITE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "warp/common/metrics.h"
#include "warp/common/stopwatch.h"

namespace warp {
namespace bench {
namespace suite {

// One warp_bench invocation: which workload, on which seed, for how long,
// plus the workload's frozen sizes and rates (workloads.json, passed as
// --params).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25.0;  // Measured time of the untraced run.
  bool trace = false;     // Record spans and report per-layer metrics.
  size_t threads = 4;     // Threads of the parallel sections.
  std::string simd = "auto";
  std::string bin_dir;     // Holds warp_serve and warp_cluster.
  std::string work_dir;    // Scratch files of this run; removed at exit.
  std::string trace_path;  // Span file written by a traced run.
  std::map<std::string, double> params;

  // A workload size; a missing key is a configuration error (exit 2).
  double Param(const std::string& key) const;
  size_t Count(const std::string& key) const;
};

// A metric as warp_bench reports it: value, unit and the number of samples
// behind it (0 for derived ratios and counts).
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// What one workload run produced. Any failed check makes the whole run
// incorrect: warp_bench then exits 1 and run.py prints no metrics.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t attempted, uint64_t failed);
  void Note(const std::string& line);

  bool correct() const { return failures_.empty(); }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& notes() const { return notes_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The workloads. Each measures for config.seconds (split between an
// untraced and a traced half when config.trace is set).
void RunPaperQuadrants(const RunConfig& config, Report* report);
void RunCascadeSearch(const RunConfig& config, Report* report);
void RunServe(const RunConfig& config, bool cluster, Report* report);

// --- statistics -------------------------------------------------------------

// Nearest-rank quantile (q in [0, 1]) of unsorted samples; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
// Geometric mean of positive values; 0 when empty.
double GeoMean(const std::vector<double>& values);
double Ratio(double numerator, double denominator);

// Reports setup_s as the median of the repeated set-ups, with a note
// listing every repetition.
void AddSetup(const std::vector<double>& setup_s, Report* report);

// Which of an item's timings is taken as its cost. Other tenants of a
// shared machine only ever slow a call down, and they do it in spells of
// a second or two, during which the same call takes about 1.5 times as
// long. An in-process item does the same work on every call, so its cost
// is its fastest call. A server entry's latency also depends on the
// requests it queued behind, which differ from pass to pass, so its cost
// is the lower quartile of its passes.
constexpr double kFastestCall = 0.0;
constexpr double kLowerQuartile = 0.25;

// Repeated timings of a fixed list of work items (pairs, queries, test
// series, request-pool entries), called round-robin, so that an item's
// calls are spread over the whole run. An item's cost is the `quantile`
// of its own timings; the op class's throughput and latency percentiles
// are computed over those per-item costs. Items never timed are skipped.
class ItemTimes {
 public:
  ItemTimes() = default;
  ItemTimes(size_t items, double quantile)
      : ns_(items), quantile_(quantile) {}
  void Add(size_t item, double ns) { ns_[item].push_back(ns); }

  uint64_t calls() const;
  // The cost of each timed item, in nanoseconds.
  std::vector<double> Costs() const;
  // Items per second at those costs.
  double Rate() const;
  // Quantile of the per-item costs, in milliseconds.
  double QuantileMs(double q) const;
  // The highest percentile of the per-item costs that leaves at least ten
  // items beyond it, at most the 99th and at least the median (tail_ms).
  double TailMs() const;

 private:
  std::vector<std::vector<double>> ns_;
  double quantile_ = kFastestCall;
};

// --- process and time helpers ------------------------------------------------

// Deterministic 64-bit stream id from a seed and a small tag.
uint64_t MixSeed(uint64_t seed, uint64_t tag);
// Steady-clock nanoseconds since the first call in this process.
int64_t NowNs();
// Peak resident set (VmHWM) of a process in MiB; `pid` 0 means this one.
// Returns 0 when the process is gone.
double PeakRssMb(long pid);
// Counter delta since `before`, as doubles for ratio arithmetic.
double CounterDelta(const obs::MetricsSnapshot& after,
                    const obs::MetricsSnapshot& before, obs::Counter counter);

// Calls fn(0) .. fn(calls - 1) in rounds until `min_s` has passed, under
// one span named `span_name`; returns nanoseconds per call. The per-kernel
// and per-codec timings of the traced runs come from these loops.
template <typename Fn>
double TimeLoop(const char* span_name, size_t calls, double min_s, Fn&& fn) {
  const uint64_t trace = NewSpanId();
  ScopedSpan scope(SpanName(span_name), 0, trace);
  double sink = 0.0;
  size_t done = 0;
  const int64_t begin = NowNs();
  const int64_t stop = begin + static_cast<int64_t>(min_s * 1e9);
  do {
    for (size_t i = 0; i < calls; ++i) sink += fn(i);
    done += calls;
  } while (NowNs() < stop);
  DoNotOptimize(sink);
  return static_cast<double>(NowNs() - begin) / static_cast<double>(done);
}

}  // namespace suite
}  // namespace bench
}  // namespace warp

#endif  // WARP_BENCH_SUITE_SUITE_H_
