// warp_cli — command-line access to the warp library.
//
//   warp_cli dist <a> <b> [--measure=...] [...]   distance between two series
//   warp_cli search <haystack> <query> [...]      best-match subsequence search
//   warp_cli classify <train> <test> [...]        1-NN classification
//   warp_cli cluster <data> [...]                 hierarchical clustering
//   warp_cli info <data>                          dataset summary
//
// Series files: one value per line (or one whitespace/comma-separated
// line). Dataset files: UCR format, one exemplar per line, class label
// first. Run `warp_cli help` for full flag documentation.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "warp/common/flags.h"
#include "warp/common/statistics.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/adtw.h"
#include "warp/core/ddtw.h"
#include "warp/core/distance_matrix.h"
#include "warp/core/dtw.h"
#include "warp/core/elastic.h"
#include "warp/core/fastdtw.h"
#include "warp/core/fastdtw_reference.h"
#include "warp/core/measure.h"
#include "warp/core/wdtw.h"
#include "warp/mining/hierarchical_clustering.h"
#include "warp/mining/nn_classifier.h"
#include "warp/mining/similarity_search.h"
#include "warp/mining/window_search.h"
#include "warp/obs/histogram.h"
#include "warp/obs/json_writer.h"
#include "warp/common/metrics.h"
#include "warp/serve/net.h"
#include "warp/simd/dispatch.h"
#include "warp/ts/io.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace cli {
namespace {

constexpr char kHelp[] = R"(warp_cli — exact and approximate DTW from the command line

COMMANDS
  dist <a> <b>        Distance between two single-series files.
    --measure=M       any registered measure (default cdtw); run
                      `warp_cli measures` for the list
    --omega=F         ADTW non-diagonal step penalty (default 0.1)
    --epsilon=F       LCSS match tolerance (default 0.1)
    --gap=F           ERP gap reference value (default 0)
    --c=F             MSM split/merge cost (default 1)
    --window=F        Sakoe-Chiba window as a fraction (default 0.05)
    --radius=N        FastDTW radius (default 10)
    --g=F             WDTW steepness (default 0.05)
    --cost=C          squared (default) | absolute
    --znorm           z-normalize both series first
    --path            also print the warping path (exact measures)

  search <haystack> <query>
    --window=F        cDTW window fraction (default 0.05)

  classify <train.tsv> <test.tsv>
    --window=F        window fraction; or
    --auto-window=N   LOOCV search up to N% of the length (0 to 100)
    --max-band=N      cap the band in cells
    --threads=N       worker threads over test queries (default 1 =
                      serial; 0 = all cores / WARP_THREADS). Results are
                      identical at any thread count.

  cluster <data.tsv>
    --measure=M       as for dist (default cdtw)
    --window=F        window fraction (default 0.1)
    --linkage=L       single | complete | average (default)
    --k=N             also print a flat k-cut (default 0 = skip)
    --threads=N       worker threads for the distance-matrix build
                      (default 1; 0 = all cores / WARP_THREADS)

  info <data.tsv>     Dataset summary (sizes, classes, length stats).

  measures            List every registered measure with a one-line
                      summary (the registry in warp/core/measure.h).
    --json            machine-readable JSON array instead of the table

  query               Talk to a running warp_serve or warp_cluster
                      (docs/SERVING.md).
    --port=N          server port (required; scrape the listening line)
    --op=OP           1nn | knn | range | dist | subsequence | ping |
                      info | stats | metrics | slowlog | telemetry | load |
                      save_snapshot | load_snapshot | shutdown. Omit --op
                      to pipe raw request lines from stdin (pipelined
                      lines are answered as one server batch).
    --dataset=NAME    target dataset; --query-file=PATH query series
    --measure=M --window=F --band=N --k=N --index=N --threshold=F
    --deadline-ms=F --znorm=BOOL --id=N
    --path=P (for --op=load / save_snapshot / load_snapshot)

GLOBAL FLAGS
  --profile           After the command, print the work-counter report
                      (cells computed, bound calls, cascade outcomes) to
                      stderr; see docs/OBSERVABILITY.md.
  --simd=MODE         SIMD kernel dispatch: on | off | auto (default
                      auto = use vector paths when the CPU supports the
                      compiled backend; see docs/SIMD.md). Results are
                      identical in every mode.

A bad flag value (--window is a fraction from 0 to 1) or a flag the
command does not read exits 2 before any work; a bad input file exits 1.
)";

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "warp_cli: %s\n", message.c_str());
  std::exit(1);
}

TimeSeries LoadSeriesOrDie(const std::string& path) {
  TimeSeries series;
  std::string error;
  if (!LoadSeriesFile(path, &series, &error)) Fail(error);
  return series;
}

Dataset LoadDatasetOrDie(const std::string& path) {
  Dataset dataset;
  std::string error;
  if (!LoadUcrFile(path, &dataset, &error)) Fail(error);
  return dataset;
}

// --measure: any registered measure (default cdtw).
std::string MeasureFlag(Flags& flags) {
  const std::string measure = flags.GetString("measure", "cdtw");
  if (!IsRegisteredMeasure(measure)) {
    flags.Invalid("measure", measure, RegisteredMeasureNames());
  }
  return measure;
}

int CmdDist(Flags& flags) {
  const std::vector<std::string> files = flags.Positionals();
  const std::string measure = MeasureFlag(flags);
  const double window = flags.GetDouble("window", 0.05, 0.0, 1.0);
  const bool znorm = flags.GetBool("znorm", false);
  const bool want_path = flags.GetBool("path", false);
  MeasureParams params;
  params.cost =
      flags.GetWord("cost", "squared", {"squared", "absolute"}) == "absolute"
          ? CostKind::kAbsolute
          : CostKind::kSquared;
  params.fastdtw_radius = flags.GetCount("radius", 10);
  params.wdtw_g = flags.GetDouble("g", 0.05);
  params.adtw_omega = flags.GetDouble("omega", 0.1, 0.0);
  params.lcss_epsilon = flags.GetDouble("epsilon", 0.1, 0.0);
  params.erp_gap = flags.GetDouble("gap", 0.0);
  params.msm_cost = flags.GetDouble("c", 1.0, 0.0);
  flags.Finalize();
  if (files.size() != 2) Fail("dist needs two series files");
  TimeSeries a = LoadSeriesOrDie(files[0]);
  TimeSeries b = LoadSeriesOrDie(files[1]);
  const std::string input_error =
      MeasureInputError(measure, params, a.size(), b.size());
  if (!input_error.empty()) Fail(input_error);
  if (znorm) {
    ZNormalizeInPlace(a.mutable_values());
    ZNormalizeInPlace(b.mutable_values());
  }
  const size_t band = static_cast<size_t>(
      window * static_cast<double>(std::max(a.size(), b.size())) + 0.5);
  // Every distance-only evaluation goes through the measure registry; the
  // explicit band_cells reproduces this command's historical half-up band
  // rounding exactly. Path-printing stays special-cased on the four
  // path-capable measures.
  params.band_cells = static_cast<long>(band);

  Stopwatch watch;
  double distance = 0.0;
  DtwResult result;
  bool have_path = false;
  if (want_path && measure == "cdtw") {
    result = Cdtw(a.view(), b.view(), band, params.cost);
    distance = result.distance;
    have_path = true;
  } else if (want_path && measure == "dtw") {
    result = Dtw(a.view(), b.view(), params.cost);
    distance = result.distance;
    have_path = true;
  } else if (measure == "fastdtw") {
    result = FastDtw(a.view(), b.view(), params.fastdtw_radius, params.cost);
    distance = result.distance;
    have_path = want_path;
  } else if (measure == "fastdtw-ref") {
    result = ReferenceFastDtw(a.view(), b.view(), params.fastdtw_radius,
                              params.cost);
    distance = result.distance;
    have_path = want_path;
  } else {
    distance = MakeMeasure(measure, params)(a.view(), b.view());
  }
  const double millis = watch.ElapsedMillis();

  std::printf("%.10g\n", distance);
  std::fprintf(stderr, "# measure=%s n=%zu m=%zu band=%zu time=%.3fms\n",
               measure.c_str(), a.size(), b.size(), band, millis);
  if (have_path) {
    for (const PathPoint& p : result.path.points()) {
      std::printf("%u\t%u\n", p.i, p.j);
    }
  }
  return 0;
}

int CmdSearch(Flags& flags) {
  const std::vector<std::string> files = flags.Positionals();
  const double window = flags.GetDouble("window", 0.05, 0.0, 1.0);
  flags.Finalize();
  if (files.size() != 2) Fail("search needs haystack and query");
  const TimeSeries haystack = LoadSeriesOrDie(files[0]);
  const TimeSeries query = LoadSeriesOrDie(files[1]);
  const size_t band = static_cast<size_t>(
      window * static_cast<double>(query.size()) + 0.5);
  SearchStats stats;
  const SubsequenceMatch match = FindBestMatch(
      haystack.view(), query.view(), band, CostKind::kSquared, &stats);
  std::printf("position\t%zu\ndistance\t%.10g\n", match.position,
              match.distance);
  std::fprintf(stderr,
               "# %llu windows, %.2f s; pruned: kim=%llu keogh=%llu "
               "abandoned=%llu full=%llu\n",
               static_cast<unsigned long long>(stats.windows), stats.seconds,
               static_cast<unsigned long long>(stats.pruned_by_kim),
               static_cast<unsigned long long>(stats.pruned_by_keogh),
               static_cast<unsigned long long>(stats.abandoned_dtw),
               static_cast<unsigned long long>(stats.full_dtw));
  return 0;
}

int CmdClassify(Flags& flags) {
  const std::vector<std::string> files = flags.Positionals();
  const bool auto_window = flags.Has("auto-window");
  const int64_t max_percent = flags.GetInt("auto-window", 10, 0, 100);
  const double window = flags.GetDouble("window", 0.05, 0.0, 1.0);
  const bool cap_band = flags.Has("max-band");
  const size_t max_band = flags.GetCount("max-band", 0);
  const size_t threads = flags.GetCount("threads", 1);
  flags.Finalize();
  if (files.size() != 2) Fail("classify needs train and test");
  const Dataset train = LoadDatasetOrDie(files[0]);
  const Dataset test = LoadDatasetOrDie(files[1]);
  const size_t length = train.UniformLength();
  if (length == 0) Fail("training series must share one length");

  size_t band;
  if (auto_window) {
    const WindowSearchResult search = FindBestWindowLoocv(
        train, static_cast<size_t>(max_percent) * length / 100,
        std::max<size_t>(1, length / 100));
    band = search.best_band;
    std::fprintf(stderr, "# auto-window: best band %zu (w=%.1f%%), LOOCV "
                 "accuracy %.3f\n",
                 band, search.best_window_percent(length),
                 search.best_accuracy);
  } else {
    band = static_cast<size_t>(window * static_cast<double>(length) + 0.5);
  }
  if (cap_band) band = std::min(band, max_band);

  const AcceleratedNnClassifier classifier(train, band);
  const ClassificationStats stats = classifier.Evaluate(test, threads);
  std::printf("accuracy\t%.6f\nerror\t%.6f\ntime_s\t%.3f\nband\t%zu\n",
              stats.accuracy, stats.error_rate, stats.seconds, band);
  return 0;
}

int CmdCluster(Flags& flags) {
  const std::vector<std::string> files = flags.Positionals();
  const double window = flags.GetDouble("window", 0.1, 0.0, 1.0);
  const std::string measure = MeasureFlag(flags);
  const size_t radius = flags.GetCount("radius", 10);
  const std::string linkage_name =
      flags.GetWord("linkage", "average", {"single", "complete", "average"});
  const size_t k = flags.GetCount("k", 0);
  const size_t threads = flags.GetCount("threads", 1);
  flags.Finalize();
  if (files.size() != 1) Fail("cluster needs a dataset file");
  const Dataset dataset = LoadDatasetOrDie(files[0]);

  std::vector<std::vector<double>> series;
  std::vector<std::string> labels;
  for (size_t i = 0; i < dataset.size(); ++i) {
    series.push_back(dataset[i].values());
    labels.push_back(std::to_string(i) + ":" +
                     std::to_string(dataset[i].label()));
  }
  MeasureParams params;
  params.window_fraction = window;
  params.fastdtw_radius = radius;
  for (const std::vector<double>& s : series) {
    const std::string input_error =
        MeasureInputError(measure, params, series[0].size(), s.size());
    if (!input_error.empty()) Fail(input_error);
  }
  const SeriesMeasure fn = MakeMeasure(measure, params);

  const DistanceMatrix matrix = ComputePairwiseMatrix(series, fn, threads);
  const Linkage linkage = linkage_name == "single"     ? Linkage::kSingle
                          : linkage_name == "complete" ? Linkage::kComplete
                                                       : Linkage::kAverage;

  const Dendrogram dendrogram = AgglomerativeCluster(matrix, linkage);
  std::printf("%s\n", dendrogram.ToNewick(labels).c_str());
  if (k > 0) {
    const std::vector<int> cut = dendrogram.CutIntoClusters(k);
    for (size_t i = 0; i < cut.size(); ++i) {
      std::printf("%zu\t%d\n", i, cut[i]);
    }
  }
  return 0;
}

int CmdInfo(Flags& flags) {
  const std::vector<std::string> files = flags.Positionals();
  flags.Finalize();
  if (files.size() != 1) Fail("info needs a dataset file");
  const Dataset dataset = LoadDatasetOrDie(files[0]);
  std::printf("series\t%zu\n", dataset.size());
  std::vector<double> lengths;
  for (const auto& s : dataset.series()) {
    lengths.push_back(static_cast<double>(s.size()));
  }
  const SampleStats stats = ComputeStats(lengths);
  std::printf("length_min\t%.0f\nlength_median\t%.0f\nlength_max\t%.0f\n",
              stats.min, stats.median, stats.max);
  std::printf("uniform_length\t%zu\n", dataset.UniformLength());
  for (const auto& [label, count] : dataset.ClassCounts()) {
    std::printf("class\t%d\t%zu\n", label, count);
  }
  return 0;
}

int CmdMeasures(Flags& flags) {
  const bool json = flags.GetBool("json", false);
  flags.Finalize();
  if (json) {
    obs::JsonWriter writer;
    writer.BeginArray();
    for (const MeasureInfo& info : RegisteredMeasures()) {
      writer.BeginObject()
          .Key("name").String(info.name)
          .Key("exact").Bool(info.exact)
          .Key("summary").String(info.summary)
          .EndObject();
    }
    writer.EndArray();
    std::printf("%s\n", writer.TakeOutput().c_str());
    return 0;
  }
  for (const MeasureInfo& info : RegisteredMeasures()) {
    std::printf("%-12s %-11s %s\n", info.name.c_str(),
                info.exact ? "exact" : "approximate", info.summary.c_str());
  }
  return 0;
}

// Talks to a running warp_serve or warp_cluster over loopback TCP. Two modes:
// with --op, builds one request line from flags and prints the response;
// without, forwards stdin request lines verbatim (sent as one write, so a
// multi-line file exercises the server's pipeline batching) and prints
// one response line per non-empty request line.
int CmdQuery(Flags& flags) {
  const int port = static_cast<int>(flags.GetInt("port", 0, 0, 65535));
  const std::string op = flags.GetWord(
      "op", "",
      {"1nn", "knn", "range", "dist", "subsequence", "ping", "info", "stats",
       "metrics", "slowlog", "telemetry", "load", "save_snapshot",
       "load_snapshot", "shutdown"});
  obs::JsonWriter writer;
  std::string query_file;
  if (!op.empty()) {
    writer.BeginObject().Key("id").Int(flags.GetInt("id", 1)).Key("op").String(
        op);
    for (const char* key : {"dataset", "path", "measure"}) {
      if (flags.Has(key)) writer.Key(key).String(flags.GetString(key, ""));
    }
    if (flags.Has("window")) {
      writer.Key("window").Double(flags.GetDouble("window", 0.0, 0.0, 1.0));
    }
    if (flags.Has("cost")) {
      writer.Key("cost").String(
          flags.GetWord("cost", "", {"squared", "absolute"}));
    }
    for (const char* key : {"band", "k", "index"}) {
      if (flags.Has(key)) writer.Key(key).Int(flags.GetInt(key, 0, 0));
    }
    if (flags.Has("threshold")) {
      writer.Key("threshold").Double(flags.GetDouble("threshold", 0.0));
    }
    if (flags.Has("deadline-ms")) {
      writer.Key("deadline_ms")
          .Double(flags.GetDouble("deadline-ms", 0.0, 0.0));
    }
    if (flags.Has("znorm")) {
      writer.Key("znorm").Bool(flags.GetBool("znorm", true));
    }
    query_file = flags.GetString("query-file", "");
  }
  flags.Finalize();
  if (port == 0) Fail("query needs --port=N (the server's ready line)");
  std::string error;
  serve::TcpConn conn = serve::ConnectLoopback(port, &error);
  if (!conn.valid()) Fail(error);

  if (op.empty()) {
    std::string payload;
    std::string line;
    size_t expected = 0;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) ++expected;
      payload += line;
      payload += '\n';
    }
    if (expected == 0) Fail("no request lines on stdin (or pass --op)");
    if (!conn.WriteAll(payload)) Fail("write to server failed");
    for (size_t i = 0; i < expected; ++i) {
      if (!conn.ReadLine(&line)) Fail("server closed before all responses");
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }

  if (!query_file.empty()) {
    const TimeSeries query = LoadSeriesOrDie(query_file);
    writer.Key("query").BeginArray();
    for (double value : query.values()) writer.Double(value);
    writer.EndArray();
  }
  writer.EndObject();

  std::string request = writer.TakeOutput();
  request += '\n';
  if (!conn.WriteAll(request)) Fail("write to server failed");
  std::string response;
  if (!conn.ReadLine(&response)) Fail("server closed without responding");
  std::printf("%s\n", response.c_str());
  return 0;
}

// Prints every nonzero work counter and every nonempty histogram
// accumulated during the command — one stderr block so a
// `2>profile.txt` redirect captures the whole picture.
void PrintProfile(const obs::MetricsSnapshot& delta,
                  const obs::HistogramSnapshot& histograms) {
  std::fprintf(stderr, "# --- work counters ---\n");
  bool any = false;
  for (size_t i = 0; i < obs::kNumCounters; ++i) {
    if (delta.values[i] == 0) continue;
    any = true;
    std::fprintf(stderr, "# %-28s %llu\n",
                 obs::CounterName(static_cast<obs::Counter>(i)),
                 static_cast<unsigned long long>(delta.values[i]));
  }
  if (!any) std::fprintf(stderr, "# (all counters zero)\n");
  for (size_t h = 0; h < obs::kNumHistograms; ++h) {
    const obs::HistogramData& data = histograms.series[h];
    if (data.Empty()) continue;
    std::fprintf(stderr, "# histogram %-24s count=%llu mean=%.1f p50=%llu "
                 "p95=%llu p99=%llu\n",
                 obs::HistogramName(static_cast<obs::Histogram>(h)),
                 static_cast<unsigned long long>(data.count), data.Mean(),
                 static_cast<unsigned long long>(data.Percentile(0.50)),
                 static_cast<unsigned long long>(data.Percentile(0.95)),
                 static_cast<unsigned long long>(data.Percentile(0.99)));
  }
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool help = flags.GetBool("help", false);
  const std::string command = flags.NextPositional();
  if (help || command.empty() || command == "help") {
    std::fputs(kHelp, stdout);
    return help || !command.empty() ? 0 : 1;
  }
  simd::SimdFlag(flags);
  const bool profile = flags.GetBool("profile", false);
  const obs::MetricsSnapshot before = obs::SnapshotCounters();
  const obs::HistogramSnapshot histograms_before = obs::SnapshotHistograms();
  int status = -1;
  if (command == "dist") status = CmdDist(flags);
  else if (command == "search") status = CmdSearch(flags);
  else if (command == "classify") status = CmdClassify(flags);
  else if (command == "cluster") status = CmdCluster(flags);
  else if (command == "info") status = CmdInfo(flags);
  else if (command == "measures") status = CmdMeasures(flags);
  else if (command == "query") status = CmdQuery(flags);
  else Fail("unknown command: " + command + " (try `warp_cli help`)");
  if (profile) {
    PrintProfile(obs::CountersSince(before),
                 obs::HistogramsSince(histograms_before));
  }
  return status;
}

}  // namespace
}  // namespace cli
}  // namespace warp

int main(int argc, char** argv) { return warp::cli::Main(argc, argv); }
