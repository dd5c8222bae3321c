// Multichannel (multivariate) time series.
//
// Used by the Appendix-B gesture reproduction, where each exemplar has
// several synchronized channels (e.g. accelerometer axes or skeleton key
// points). Channels share a common length; storage is channel-major so a
// single channel is a contiguous span.

#ifndef WARP_TS_MULTI_SERIES_H_
#define WARP_TS_MULTI_SERIES_H_

#include <cstddef>
#include <span>
#include <vector>

#include "warp/ts/time_series.h"

namespace warp {

class MultiSeries {
 public:
  MultiSeries() = default;
  MultiSeries(size_t num_channels, size_t length, int label = TimeSeries::kUnlabeled);

  // Builds from per-channel vectors; all channels must have equal length.
  explicit MultiSeries(std::vector<std::vector<double>> channels,
                       int label = TimeSeries::kUnlabeled);

  size_t num_channels() const { return num_channels_; }
  size_t length() const { return length_; }
  bool empty() const { return length_ == 0; }

  int label() const { return label_; }
  void set_label(int label) { label_ = label; }

  std::span<const double> channel(size_t c) const;
  std::span<double> mutable_channel(size_t c);

  double at(size_t c, size_t t) const;
  void set(size_t c, size_t t, double value);

 private:
  size_t num_channels_ = 0;
  size_t length_ = 0;
  int label_ = TimeSeries::kUnlabeled;
  std::vector<double> data_;  // Channel-major: data_[c * length_ + t].
};

}  // namespace warp

#endif  // WARP_TS_MULTI_SERIES_H_
