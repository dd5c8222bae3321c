// ucr_runner — reproduce UCR-archive-style result rows on real data.
//
// Given a directory laid out like the UCR archive
// (<dir>/<Name>/<Name>_TRAIN.tsv and <Name>_TEST.tsv), runs for each
// requested dataset:
//   * 1-NN Euclidean error,
//   * best-window LOOCV search on the training set,
//   * 1-NN cDTW error at that window (accelerated exact engine),
//   * optionally 1-NN FastDTW error and runtime for contrast,
// and prints a row comparable to the archive's summary table (and to the
// bundled snapshot in warp/ucr). This is the bridge from the synthetic
// reproduction to the real archive for users who have it.
//
// Usage: ucr_runner <archive_dir> <DatasetName> [more names...]
//        [--max-window=20] [--fastdtw] [--radius=10]
// --max-window is a percent (0 to 100); a bad flag exits 2 (docs/CLI.md).

#include <cstdio>
#include <string>
#include <vector>

#include "warp/common/flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/table_printer.h"
#include "warp/core/dtw.h"
#include "warp/core/fastdtw.h"
#include "warp/mining/nn_classifier.h"
#include "warp/mining/window_search.h"
#include "warp/ts/io.h"
#include "warp/ucr/ucr_metadata.h"

namespace warp {
namespace tools {
namespace {

int Run(Flags& flags) {
  const size_t max_window_percent =
      static_cast<size_t>(flags.GetInt("max-window", 20, 0, 100));
  const bool run_fastdtw = flags.GetBool("fastdtw", false);
  const size_t radius = flags.GetCount("radius", 10);
  const std::string archive_dir = flags.NextPositional();
  const std::vector<std::string> datasets = flags.Positionals();
  flags.Finalize();
  if (datasets.empty()) {
    std::fprintf(stderr,
                 "usage: ucr_runner <archive_dir> <Dataset> [...] "
                 "[--max-window=20] [--fastdtw] [--radius=10]\n");
    return 1;
  }

  TablePrinter table({"dataset", "N", "train", "test", "ED err",
                      "best w%", "cDTW err", "cDTW s", "FastDTW err",
                      "FastDTW s", "snapshot w%/err"});
  for (const std::string& name : datasets) {
    const std::string base = archive_dir + "/" + name + "/" + name;
    Dataset train;
    Dataset test;
    std::string error;
    if (!LoadUcrFile(base + "_TRAIN.tsv", &train, &error) ||
        !LoadUcrFile(base + "_TEST.tsv", &test, &error)) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), error.c_str());
      continue;
    }
    const size_t length = train.UniformLength();
    if (length == 0 || test.UniformLength() != length) {
      std::fprintf(stderr, "%s: skipped (variable-length series)\n",
                   name.c_str());
      continue;
    }

    // Euclidean baseline.
    const ClassificationStats ed = Evaluate1Nn(
        train, test,
        [](std::span<const double> a, std::span<const double> b) {
          return EuclideanDistance(a, b);
        });

    // Best window by LOOCV (the archive's procedure), step 1% of length.
    const WindowSearchResult search = FindBestWindowLoocv(
        train, max_window_percent * length / 100,
        std::max<size_t>(1, length / 100));

    const AcceleratedNnClassifier classifier(train, search.best_band);
    const ClassificationStats cdtw = classifier.Evaluate(test);

    std::string fastdtw_err = "-";
    std::string fastdtw_time = "-";
    if (run_fastdtw) {
      const ClassificationStats fast = Evaluate1Nn(
          train, test,
          [radius](std::span<const double> a, std::span<const double> b) {
            return FastDtwDistance(a, b, radius);
          });
      fastdtw_err = TablePrinter::FormatDouble(fast.error_rate, 3);
      fastdtw_time = TablePrinter::FormatDouble(fast.seconds, 1);
    }

    std::string snapshot = "-";
    if (const ucr::DatasetInfo* info = ucr::FindDataset(name)) {
      snapshot = std::to_string(info->best_window_percent) + "/" +
                 TablePrinter::FormatDouble(info->cdtw_error, 3);
    }

    table.AddRow({name, std::to_string(length),
                  std::to_string(train.size()), std::to_string(test.size()),
                  TablePrinter::FormatDouble(ed.error_rate, 3),
                  TablePrinter::FormatDouble(
                      search.best_window_percent(length), 0),
                  TablePrinter::FormatDouble(cdtw.error_rate, 3),
                  TablePrinter::FormatDouble(cdtw.seconds, 1), fastdtw_err,
                  fastdtw_time, snapshot});
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace tools
}  // namespace warp

int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  return warp::tools::Run(flags);
}
