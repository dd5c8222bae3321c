#include "warp/ts/multi_series.h"

#include <cmath>

#include "warp/common/assert.h"

namespace warp {

MultiSeries::MultiSeries(size_t num_channels, size_t length, int label)
    : num_channels_(num_channels),
      length_(length),
      label_(label),
      data_(num_channels * length, 0.0) {
  WARP_CHECK(num_channels > 0);
}

MultiSeries::MultiSeries(std::vector<std::vector<double>> channels, int label)
    : label_(label) {
  WARP_CHECK(!channels.empty());
  num_channels_ = channels.size();
  length_ = channels[0].size();
  data_.reserve(num_channels_ * length_);
  for (const auto& channel : channels) {
    WARP_CHECK_MSG(channel.size() == length_,
                   "all channels must have equal length");
    data_.insert(data_.end(), channel.begin(), channel.end());
  }
}

std::span<const double> MultiSeries::channel(size_t c) const {
  WARP_CHECK(c < num_channels_);
  return {data_.data() + c * length_, length_};
}

std::span<double> MultiSeries::mutable_channel(size_t c) {
  WARP_CHECK(c < num_channels_);
  return {data_.data() + c * length_, length_};
}

double MultiSeries::at(size_t c, size_t t) const {
  WARP_DCHECK(c < num_channels_ && t < length_);
  return data_[c * length_ + t];
}

void MultiSeries::set(size_t c, size_t t, double value) {
  WARP_DCHECK(c < num_channels_ && t < length_);
  data_[c * length_ + t] = value;
}

}  // namespace warp
