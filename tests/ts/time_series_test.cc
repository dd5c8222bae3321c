// Unit tests for TimeSeries and MultiSeries containers.

#include "warp/ts/time_series.h"

#include <cmath>

#include <gtest/gtest.h>

#include "warp/ts/multi_series.h"

namespace warp {
namespace {

TEST(TimeSeriesTest, BasicAccessors) {
  TimeSeries series({1.0, 2.0, 3.0}, 5);
  EXPECT_EQ(series.size(), 3u);
  EXPECT_FALSE(series.empty());
  EXPECT_EQ(series.label(), 5);
  EXPECT_DOUBLE_EQ(series[1], 2.0);
  series[1] = 9.0;
  EXPECT_DOUBLE_EQ(series[1], 9.0);
}

TEST(TimeSeriesTest, DefaultIsUnlabeledAndEmpty) {
  TimeSeries series;
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(series.label(), TimeSeries::kUnlabeled);
}

TEST(TimeSeriesTest, SummaryStatistics) {
  const TimeSeries series({1.0, 5.0, 3.0});
  EXPECT_DOUBLE_EQ(series.Min(), 1.0);
  EXPECT_DOUBLE_EQ(series.Max(), 5.0);
  EXPECT_DOUBLE_EQ(series.Mean(), 3.0);
  EXPECT_NEAR(series.StdDev(), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(MultiSeriesTest, ChannelMajorStorage) {
  MultiSeries series(std::vector<std::vector<double>>{{1.0, 2.0},
                                                      {3.0, 4.0}},
                     7);
  EXPECT_EQ(series.num_channels(), 2u);
  EXPECT_EQ(series.length(), 2u);
  EXPECT_EQ(series.label(), 7);
  EXPECT_DOUBLE_EQ(series.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(series.at(1, 0), 3.0);
  const std::span<const double> channel1 = series.channel(1);
  EXPECT_DOUBLE_EQ(channel1[1], 4.0);
}

TEST(MultiSeriesTest, SetWritesThrough) {
  MultiSeries series(2, 3);
  series.set(1, 2, 8.0);
  EXPECT_DOUBLE_EQ(series.at(1, 2), 8.0);
  EXPECT_DOUBLE_EQ(series.at(0, 2), 0.0);
}

}  // namespace
}  // namespace warp
