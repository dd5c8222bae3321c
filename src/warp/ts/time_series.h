// A 1-D time series: the basic currency of the warp library.
//
// Algorithms in warp/core accept std::span<const double> so that they work
// on raw vectors, TimeSeries objects, and sub-ranges alike; TimeSeries adds
// a label and a name for dataset handling plus a few shape conveniences.

#ifndef WARP_TS_TIME_SERIES_H_
#define WARP_TS_TIME_SERIES_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace warp {

class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> values, int label = kUnlabeled)
      : values_(std::move(values)), label_(label) {}

  TimeSeries(const TimeSeries&) = default;
  TimeSeries& operator=(const TimeSeries&) = default;
  TimeSeries(TimeSeries&&) = default;
  TimeSeries& operator=(TimeSeries&&) = default;

  // Label value used for unlabeled series.
  static constexpr int kUnlabeled = -1;

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }
  std::span<const double> view() const { return values_; }

  int label() const { return label_; }
  void set_label(int label) { label_ = label; }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // Elementwise summary values. All require a non-empty series.
  double Min() const;
  double Max() const;
  double Mean() const;
  double StdDev() const;  // Population standard deviation.

 private:
  std::vector<double> values_;
  int label_ = kUnlabeled;
  std::string name_;
};

}  // namespace warp

#endif  // WARP_TS_TIME_SERIES_H_
