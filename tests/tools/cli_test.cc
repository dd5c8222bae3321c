// Integration tests for the command-line tools: spawn the real binaries
// against temp files and check their output contracts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/core/measure.h"
#include "warp/gen/gesture.h"
#include "warp/serve/wire.h"
#include "warp/ts/io.h"

namespace warp {
namespace {

// Binary locations injected by CMake.
#ifndef WARP_CLI_PATH
#error "WARP_CLI_PATH must be defined"
#endif
#ifndef UCR_RUNNER_PATH
#error "UCR_RUNNER_PATH must be defined"
#endif
#ifndef WARP_SERVE_PATH
#error "WARP_SERVE_PATH must be defined"
#endif
#ifndef WARP_CLUSTER_PATH
#error "WARP_CLUSTER_PATH must be defined"
#endif

std::string RunCommand(const std::string& command, int* exit_code) {
  const std::string full = command + " 2>/dev/null";
  FILE* pipe = popen(full.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  *exit_code = WEXITSTATUS(status);
  return output;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    // Two single series files.
    WriteSeries(dir_ + "/a.txt", {0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0});
    WriteSeries(dir_ + "/b.txt", {0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 1.0});
    // A small UCR-format dataset pair.
    gen::GestureOptions options;
    options.length = 40;
    options.num_classes = 2;
    options.seed = 11;
    const Dataset pool = gen::MakeGestureDataset(6, options);
    const auto [train, test] = pool.StratifiedSplit(0.5);
    std::string error;
    ASSERT_TRUE(SaveUcrFile(dir_ + "/train.tsv", train, &error)) << error;
    ASSERT_TRUE(SaveUcrFile(dir_ + "/test.tsv", test, &error)) << error;
  }

  void WriteSeries(const std::string& path,
                   const std::vector<double>& values) {
    std::ofstream out(path);
    for (double v : values) out << v << "\n";
  }

  // Lays out a miniature UCR archive with one dataset, Mini; returns its
  // directory.
  std::string MakeArchive() {
    const std::string archive = dir_ + "/archive";
    const std::string dataset_dir = archive + "/Mini";
    std::string error;
    EXPECT_EQ(std::system(("mkdir -p " + dataset_dir).c_str()), 0);
    Dataset train;
    Dataset test;
    EXPECT_TRUE(LoadUcrFile(dir_ + "/train.tsv", &train, &error)) << error;
    EXPECT_TRUE(LoadUcrFile(dir_ + "/test.tsv", &test, &error)) << error;
    EXPECT_TRUE(SaveUcrFile(dataset_dir + "/Mini_TRAIN.tsv", train, &error));
    EXPECT_TRUE(SaveUcrFile(dataset_dir + "/Mini_TEST.tsv", test, &error));
    return archive;
  }

  // Runs `command` under a 20 s timeout; expects exit `code` and a
  // stderr message containing `text`. A hang reads as the timeout's exit
  // 124, an abort as 134.
  void ExpectFailure(const std::string& command, int code,
                     const std::string& text) {
    SCOPED_TRACE(command);
    const std::string full = "timeout 20 " + command + " 2>&1 >/dev/null";
    FILE* pipe = popen(full.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string message;
    char buffer[512];
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) message += buffer;
    const int status = pclose(pipe);
    EXPECT_EQ(WEXITSTATUS(status), code) << message;
    EXPECT_NE(message.find(text), std::string::npos) << message;
  }

  // A usage error: exit 2, naming `flag`.
  void ExpectBadFlag(const std::string& command, const std::string& flag) {
    ExpectFailure(command, 2, "--" + flag);
  }

  std::string dir_;
};

TEST_F(CliTest, DistCdtwAbsorbsShift) {
  int code = 0;
  const std::string out =
      RunCommand(std::string(WARP_CLI_PATH) + " dist " + dir_ +
                     "/a.txt " + dir_ + "/b.txt --measure=cdtw --window=0.2",
                 &code);
  EXPECT_EQ(code, 0);
  const double d = std::strtod(out.c_str(), nullptr);
  EXPECT_LT(d, 1.5);  // The one-step shift warps away almost fully.

  const std::string ed =
      RunCommand(std::string(WARP_CLI_PATH) + " dist " + dir_ +
                     "/a.txt " + dir_ + "/b.txt --measure=ed",
                 &code);
  EXPECT_GT(std::strtod(ed.c_str(), nullptr), d);
}

TEST_F(CliTest, DistFastDtwNeverBelowFullDtw) {
  int code = 0;
  const std::string full =
      RunCommand(std::string(WARP_CLI_PATH) + " dist " + dir_ +
                     "/a.txt " + dir_ + "/b.txt --measure=dtw",
                 &code);
  const std::string fast =
      RunCommand(std::string(WARP_CLI_PATH) + " dist " + dir_ +
                     "/a.txt " + dir_ + "/b.txt --measure=fastdtw --radius=1",
                 &code);
  EXPECT_GE(std::strtod(fast.c_str(), nullptr),
            std::strtod(full.c_str(), nullptr) - 1e-9);
}

TEST_F(CliTest, DistWithPathEmitsMonotonePath) {
  int code = 0;
  const std::string out =
      RunCommand(std::string(WARP_CLI_PATH) + " dist " + dir_ +
                     "/a.txt " + dir_ + "/b.txt --measure=dtw --path",
                 &code);
  EXPECT_EQ(code, 0);
  // First line is the distance; remaining lines are "i<TAB>j".
  std::istringstream stream(out);
  std::string line;
  ASSERT_TRUE(std::getline(stream, line));
  int prev_i = -1;
  int prev_j = -1;
  int rows = 0;
  while (std::getline(stream, line)) {
    int i = 0;
    int j = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%d\t%d", &i, &j), 2) << line;
    EXPECT_GE(i, prev_i);
    EXPECT_GE(j, prev_j);
    prev_i = i;
    prev_j = j;
    ++rows;
  }
  EXPECT_GE(rows, 7);
  EXPECT_EQ(prev_i, 6);
  EXPECT_EQ(prev_j, 6);
}

TEST_F(CliTest, DistProfilePrintsWorkCounters) {
  // --profile writes to stderr, which RunCommand discards.
  const std::string profile_path = dir_ + "/profile.txt";
  const std::string command = std::string(WARP_CLI_PATH) + " dist " + dir_ +
                              "/a.txt " + dir_ + "/b.txt --profile" +
                              " >/dev/null 2>" + profile_path;
  const int status = std::system(command.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream in(profile_path);
  std::ostringstream profile;
  profile << in.rdbuf();
  const std::string text = profile.str();
  EXPECT_NE(text.find("# --- work counters ---\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("# dtw_cells "), std::string::npos) << text;
}

// The band comes from the server's rule (BandFromFraction): this window
// times 256 is 0.5 - 2^-54, which rounds to band 0, while adding 0.5 and
// truncating would round up to 1 (the sum rounds to 1.0).
TEST_F(CliTest, DistBandFollowsTheServersRounding) {
  std::vector<double> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(0.05 * static_cast<double>(i));
  }
  WriteSeries(dir_ + "/long_a.txt", values);
  std::reverse(values.begin(), values.end());
  WriteSeries(dir_ + "/long_b.txt", values);
  const std::string stderr_path = dir_ + "/band.txt";
  const std::string command =
      std::string(WARP_CLI_PATH) + " dist " + dir_ + "/long_a.txt " + dir_ +
      "/long_b.txt --window=0.0019531249999999998 >/dev/null 2>" +
      stderr_path;
  const int status = std::system(command.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream in(stderr_path);
  std::ostringstream message;
  message << in.rdbuf();
  EXPECT_NE(message.str().find(" band=0 "), std::string::npos)
      << message.str();
}

TEST_F(CliTest, ClassifyReportsAccuracy) {
  int code = 0;
  const std::string out =
      RunCommand(std::string(WARP_CLI_PATH) + " classify " + dir_ +
                     "/train.tsv " + dir_ + "/test.tsv --window=0.1",
                 &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("accuracy\t"), std::string::npos);
  double accuracy = -1.0;
  std::sscanf(out.c_str(), "accuracy\t%lf", &accuracy);
  EXPECT_GE(accuracy, 0.5);
  EXPECT_LE(accuracy, 1.0);
}

TEST_F(CliTest, InfoSummarizesDataset) {
  int code = 0;
  const std::string out = RunCommand(
      std::string(WARP_CLI_PATH) + " info " + dir_ + "/train.tsv", &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("series\t6"), std::string::npos);
  EXPECT_NE(out.find("uniform_length\t40"), std::string::npos);
}

TEST_F(CliTest, ClusterEmitsNewickAndCut) {
  int code = 0;
  const std::string out =
      RunCommand(std::string(WARP_CLI_PATH) + " cluster " + dir_ +
                     "/train.tsv --k=2 --measure=cdtw --window=0.1",
                 &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find(';'), std::string::npos);  // Newick terminator.
  EXPECT_NE(out.find('('), std::string::npos);
}

TEST_F(CliTest, MeasuresJsonListsTheRegistry) {
  int code = 0;
  const std::string out = RunCommand(
      std::string(WARP_CLI_PATH) + " measures --json", &code);
  EXPECT_EQ(code, 0);

  serve::JsonValue root;
  std::string error;
  ASSERT_TRUE(serve::ParseJson(out, &root, &error)) << error << "\n" << out;
  ASSERT_TRUE(root.is_array());
  const auto& registry = RegisteredMeasures();
  ASSERT_EQ(root.AsArray().size(), registry.size());
  for (size_t i = 0; i < registry.size(); ++i) {
    EXPECT_EQ(root.AsArray()[i].StringOr("name", ""), registry[i].name);
    EXPECT_EQ(root.AsArray()[i].BoolOr("exact", !registry[i].exact),
              registry[i].exact);
    EXPECT_FALSE(root.AsArray()[i].StringOr("summary", "").empty());
  }
}

// Bad flags are usage errors: each exits 2 before any work, naming the
// flag, instead of running another window, hanging or aborting.
TEST_F(CliTest, BadCliFlagsExitTwo) {
  const std::string dist = std::string(WARP_CLI_PATH) + " dist " + dir_ +
                           "/a.txt " + dir_ + "/b.txt ";
  ExpectBadFlag(dist + "--window=abc", "window");
  ExpectBadFlag(dist + "--windwo=0.1", "windwo");
  ExpectBadFlag(dist + "--window=-0.5", "window");
  ExpectBadFlag(dist + "--measure=fastdtw --radius=-1", "radius");
  ExpectBadFlag(std::string(WARP_CLI_PATH) + " classify " + dir_ +
                    "/train.tsv " + dir_ + "/test.tsv --auto-window=-3",
                "auto-window");
  // `cluster` is hierarchical clustering only; the launcher is warp_cluster.
  ExpectBadFlag(std::string(WARP_CLI_PATH) + " cluster --shards=2", "shards");
}

// Series a measure cannot compare (different lengths for a measure that
// compares position by position, under 3 points for ddtw) are an input
// error: exit 1 naming the measure and both lengths, not an abort.
TEST_F(CliTest, MeasureLengthErrorsExitOne) {
  WriteSeries(dir_ + "/short.txt", {0.0, 1.0, 2.0, 1.0, 0.0});
  std::ofstream(dir_ + "/mixed.tsv") << "1\t0\t1\t2\t1\t0\t1\t2\n"
                                     << "2\t0\t1\t2\t1\t0\n"
                                     << "1\t1\t2\t3\t2\t1\t2\t3\n";
  for (const std::string measure : {"ed", "wdtw"}) {
    ExpectFailure(std::string(WARP_CLI_PATH) + " dist " + dir_ + "/a.txt " +
                      dir_ + "/short.txt --measure=" + measure,
                  1,
                  "measure " + measure + " requires equal lengths, got 7 and 5");
  }
  for (const std::string measure : {"ed", "wdtw", "adtw"}) {
    ExpectFailure(std::string(WARP_CLI_PATH) + " cluster " + dir_ +
                      "/mixed.tsv --measure=" + measure,
                  1,
                  "measure " + measure + " requires equal lengths, got 7 and 5");
  }
  WriteSeries(dir_ + "/two.txt", {0.0, 1.0});
  ExpectFailure(std::string(WARP_CLI_PATH) + " dist " + dir_ + "/a.txt " +
                    dir_ + "/two.txt --measure=ddtw",
                1, "measure ddtw requires at least 3 points, got 7 and 2");
  // A fixed omega lifts adtw's rule.
  int code = 0;
  RunCommand(std::string(WARP_CLI_PATH) + " dist " + dir_ + "/a.txt " + dir_ +
                 "/short.txt --measure=adtw --omega=0.5",
             &code);
  EXPECT_EQ(code, 0);
}

TEST_F(CliTest, BadRunnerAndServerFlagsExitTwo) {
  ExpectBadFlag(std::string(UCR_RUNNER_PATH) + " " + MakeArchive() +
                    " Mini --max-window=-1",
                "max-window");
  ExpectBadFlag(std::string(WARP_SERVE_PATH) +
                    " --bands=abc --data=x=/nonexistent",
                "bands");
  ExpectBadFlag(std::string(WARP_SERVE_PATH) +
                    " --gen=rw=20,64,seven --data=x=/nonexistent",
                "gen");
  // A numeric serving flag that is not a whole integer in range exits 2
  // before any input is touched; the missing input would exit 1 instead.
  ExpectBadFlag(std::string(WARP_SERVE_PATH) +
                    " --threads=abc --data=x=/nonexistent",
                "threads");
  ExpectBadFlag(std::string(WARP_CLUSTER_PATH) +
                    " --port=70000 --worker-bin=/nonexistent",
                "port");
}

TEST_F(CliTest, BadBenchFlagExitsTwo) {
#ifdef WARP_BENCH_TRILLION_PATH
  ExpectBadFlag(std::string(WARP_BENCH_TRILLION_PATH) + " --haystack=2e4",
                "haystack");
  // A single-core harness takes no --threads.
  ExpectBadFlag(std::string(WARP_BENCH_TRILLION_PATH) + " --threads=2",
                "threads");
#else
  GTEST_SKIP() << "benchmarks not built";
#endif
}

TEST_F(CliTest, UnknownCommandFails) {
  int code = 0;
  RunCommand(std::string(WARP_CLI_PATH) + " frobnicate", &code);
  EXPECT_NE(code, 0);
  // The server's and the launcher's one front doors are warp_serve and
  // warp_cluster: `serve` is unknown, and `cluster` needs a dataset.
  ExpectFailure(std::string(WARP_CLI_PATH) + " serve", 1,
                "unknown command: serve");
  ExpectFailure(std::string(WARP_CLI_PATH) + " cluster", 1,
                "cluster needs a dataset file");
}

TEST_F(CliTest, UcrRunnerProducesRow) {
  const std::string archive = MakeArchive();
  int code = 0;
  const std::string out = RunCommand(
      std::string(UCR_RUNNER_PATH) + " " + archive + " Mini --max-window=10",
      &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("Mini"), std::string::npos);
  EXPECT_NE(out.find("ED err"), std::string::npos);
}

}  // namespace
}  // namespace warp
