// Integration tests for the command-line tools: spawn the real binaries
// against temp files and check their output contracts.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

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

  // Runs `command` under a 20 s timeout; expects exit 2 and a stderr
  // message naming `flag`. A hang reads as the timeout's exit 124.
  void ExpectBadFlag(const std::string& command, const std::string& flag) {
    SCOPED_TRACE(command);
    const std::string full = "timeout 20 " + command + " 2>&1 >/dev/null";
    FILE* pipe = popen(full.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string message;
    char buffer[512];
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) message += buffer;
    const int status = pclose(pipe);
    EXPECT_EQ(WEXITSTATUS(status), 2) << message;
    EXPECT_NE(message.find("--" + flag), std::string::npos) << message;
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

// A numeric serving flag that is not a whole integer in range exits 2
// before any input is touched; the missing input would exit 1 instead.
TEST_F(CliTest, ServeRejectsNonNumericThreads) {
  int code = 0;
  RunCommand(std::string(WARP_CLI_PATH) +
                 " serve --threads=abc --data=x=/nonexistent",
             &code);
  EXPECT_EQ(code, 2);
}

TEST_F(CliTest, ClusterRejectsOutOfRangePort) {
  int code = 0;
  RunCommand(std::string(WARP_CLI_PATH) +
                 " cluster --port=70000 --worker-bin=/nonexistent",
             &code);
  EXPECT_EQ(code, 2);
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
}

TEST_F(CliTest, BadBenchFlagExitsTwo) {
#ifdef WARP_BENCH_TRILLION_PATH
  ExpectBadFlag(std::string(WARP_BENCH_TRILLION_PATH) + " --haystack=2e4",
                "haystack");
#else
  GTEST_SKIP() << "benchmarks not built";
#endif
}

TEST_F(CliTest, UnknownCommandFails) {
  int code = 0;
  RunCommand(std::string(WARP_CLI_PATH) + " frobnicate", &code);
  EXPECT_NE(code, 0);
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
