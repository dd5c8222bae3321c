// Unit tests for UCR-format and plain-series I/O, including failure paths.

#include "warp/ts/io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

namespace warp {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(IoTest, ParseUcrLineTabSeparated) {
  TimeSeries series;
  std::string error;
  ASSERT_TRUE(ParseUcrLine("2\t1.5\t-0.25\t3", &series, &error)) << error;
  EXPECT_EQ(series.label(), 2);
  EXPECT_EQ(series.values(), (std::vector<double>{1.5, -0.25, 3.0}));
}

TEST_F(IoTest, ParseUcrLineCommaSeparated) {
  TimeSeries series;
  std::string error;
  ASSERT_TRUE(ParseUcrLine("1,0.5,0.75", &series, &error)) << error;
  EXPECT_EQ(series.label(), 1);
  EXPECT_EQ(series.size(), 2u);
}

TEST_F(IoTest, ParseUcrLineRejectsGarbage) {
  TimeSeries series;
  std::string error;
  EXPECT_FALSE(ParseUcrLine("1\tfoo\t2", &series, &error));
  EXPECT_NE(error.find("foo"), std::string::npos);
}

TEST_F(IoTest, ParseUcrLineRejectsNonFinite) {
  TimeSeries series;
  std::string error;
  EXPECT_FALSE(ParseUcrLine("1\tnan\t2", &series, &error));
  EXPECT_FALSE(ParseUcrLine("1\tinf", &series, &error));
}

// A class label is an integer: a fractional one is refused, not
// truncated into another class, and so is one past int's range. The old
// archive's exponent form of an integer still reads.
TEST_F(IoTest, ParseUcrLineRequiresIntegerLabel) {
  TimeSeries series;
  std::string error;
  for (const char* label : {"1.5", "3e9", "-3e9", "0.999999"}) {
    SCOPED_TRACE(label);
    EXPECT_FALSE(ParseUcrLine(std::string(label) + "\t1\t2", &series, &error));
    EXPECT_NE(error.find("class label must be an integer"), std::string::npos)
        << error;
  }
  ASSERT_TRUE(ParseUcrLine("1.0000000e+00\t1\t2", &series, &error)) << error;
  EXPECT_EQ(series.label(), 1);
  ASSERT_TRUE(ParseUcrLine("-2\t1\t2", &series, &error)) << error;
  EXPECT_EQ(series.label(), -2);
}

TEST_F(IoTest, ParseUcrLineRequiresLabelAndValue) {
  TimeSeries series;
  std::string error;
  EXPECT_FALSE(ParseUcrLine("3", &series, &error));
  EXPECT_FALSE(ParseUcrLine("", &series, &error));
}

TEST_F(IoTest, RoundTripDataset) {
  Dataset dataset;
  dataset.Add(TimeSeries({1.0, 2.0, 3.5}, 0));
  dataset.Add(TimeSeries({-1.0, 0.0, 0.125}, 1));
  const std::string path = TempPath("roundtrip.tsv");
  std::string error;
  ASSERT_TRUE(SaveUcrFile(path, dataset, &error)) << error;

  Dataset loaded;
  ASSERT_TRUE(LoadUcrFile(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].label(), 0);
  EXPECT_EQ(loaded[1].label(), 1);
  EXPECT_EQ(loaded[0].values(), dataset[0].values());
  EXPECT_EQ(loaded[1].values(), dataset[1].values());
}

TEST_F(IoTest, LoadMissingFileFails) {
  Dataset dataset;
  std::string error;
  EXPECT_FALSE(LoadUcrFile("/nonexistent/path.tsv", &dataset, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST_F(IoTest, LoadReportsLineNumberOnParseError) {
  const std::string path = TempPath("bad.tsv");
  {
    std::ofstream out(path);
    out << "1\t2.0\t3.0\n";
    out << "2\tbroken\t3.0\n";
  }
  Dataset dataset;
  std::string error;
  EXPECT_FALSE(LoadUcrFile(path, &dataset, &error));
  EXPECT_NE(error.find(":2:"), std::string::npos);
}

TEST_F(IoTest, EmptyFileFails) {
  const std::string path = TempPath("empty.tsv");
  { std::ofstream out(path); }
  Dataset dataset;
  std::string error;
  EXPECT_FALSE(LoadUcrFile(path, &dataset, &error));
}

TEST_F(IoTest, SkipsBlankLines) {
  const std::string path = TempPath("blanks.tsv");
  {
    std::ofstream out(path);
    out << "1\t2.0\n\n\n2\t4.0\n";
  }
  Dataset dataset;
  std::string error;
  ASSERT_TRUE(LoadUcrFile(path, &dataset, &error)) << error;
  EXPECT_EQ(dataset.size(), 2u);
}

TEST_F(IoTest, TruncatedRowLoadsAsShorterSeries) {
  // UCR files are whitespace-delimited; a row cut short mid-write still
  // parses (as a shorter series) and is diagnosable downstream via
  // UniformLength() == 0 rather than silently padding.
  const std::string path = TempPath("truncated.tsv");
  {
    std::ofstream out(path);
    out << "1\t2.0\t3.0\t4.0\n";
    out << "2\t5.0\n";  // Truncated.
  }
  Dataset dataset;
  std::string error;
  ASSERT_TRUE(LoadUcrFile(path, &dataset, &error)) << error;
  ASSERT_EQ(dataset.size(), 2u);
  EXPECT_EQ(dataset[0].size(), 3u);
  EXPECT_EQ(dataset[1].size(), 1u);
  EXPECT_EQ(dataset.UniformLength(), 0u);
}

TEST_F(IoTest, RowEndingInSeparatorIsNotTruncation) {
  TimeSeries series;
  std::string error;
  ASSERT_TRUE(ParseUcrLine("1\t2.0\t3.0\t", &series, &error)) << error;
  EXPECT_EQ(series.size(), 2u);
}

TEST_F(IoTest, MixedCaseNonFiniteValuesRejected) {
  const std::string path = TempPath("nan.tsv");
  {
    std::ofstream out(path);
    out << "1\t2.0\t3.0\n";
    out << "2\t4.0\tNaN\n";
    out << "3\t6.0\t7.0\n";
  }
  Dataset dataset;
  std::string error;
  EXPECT_FALSE(LoadUcrFile(path, &dataset, &error));
  EXPECT_NE(error.find(":2:"), std::string::npos);  // The offending line.
  TimeSeries series;
  EXPECT_FALSE(ParseUcrLine("1\t-INF", &series, &error));
}

TEST_F(IoTest, WhitespaceOnlyFileFails) {
  const std::string path = TempPath("whitespace.tsv");
  {
    std::ofstream out(path);
    out << "\n\r\n\n";
  }
  Dataset dataset;
  std::string error;
  EXPECT_FALSE(LoadUcrFile(path, &dataset, &error));
  EXPECT_NE(error.find("no series"), std::string::npos);
}

TEST_F(IoTest, LoadSeriesFileErrorPaths) {
  TimeSeries series;
  std::string error;
  EXPECT_FALSE(LoadSeriesFile("/nonexistent/series.txt", &series, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const std::string empty = TempPath("empty_series.txt");
  { std::ofstream out(empty); }
  EXPECT_FALSE(LoadSeriesFile(empty, &series, &error));

  const std::string garbage = TempPath("garbage_series.txt");
  {
    std::ofstream out(garbage);
    out << "1.0\nbogus\n";
  }
  EXPECT_FALSE(LoadSeriesFile(garbage, &series, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST_F(IoTest, SeriesRoundTrip) {
  const TimeSeries series({0.5, -2.25, 7.0});
  const std::string path = TempPath("series.txt");
  std::string error;
  ASSERT_TRUE(SaveSeriesFile(path, series, &error)) << error;
  TimeSeries loaded;
  ASSERT_TRUE(LoadSeriesFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.values(), series.values());
}

TEST_F(IoTest, WindowsLineEndingsTolerated) {
  const std::string path = TempPath("crlf.tsv");
  {
    std::ofstream out(path);
    out << "1\t2.0\t3.0\r\n";
  }
  Dataset dataset;
  std::string error;
  ASSERT_TRUE(LoadUcrFile(path, &dataset, &error)) << error;
  EXPECT_EQ(dataset[0].size(), 2u);
}

}  // namespace
}  // namespace warp
