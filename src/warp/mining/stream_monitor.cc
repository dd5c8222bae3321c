#include "warp/mining/stream_monitor.h"

#include "warp/common/assert.h"

namespace warp {

StreamMonitor::StreamMonitor(std::vector<double> query, size_t band,
                             double threshold, CostKind cost)
    : query_(ZNormalized(query)),
      threshold_(threshold),
      cascade_(query_, band, cost, &stats_),
      ring_(query_.size(), 0.0),
      running_(query_.size()) {
  WARP_CHECK(threshold >= 0.0);
  window_.resize(query_.size());
}

std::optional<StreamMonitor::Event> StreamMonitor::Push(double value) {
  const size_t m = query_.size();
  const bool warm = stats_.samples >= m;  // Ring already full?
  if (warm) running_.Pop(ring_[ring_head_]);
  ring_[ring_head_] = value;
  running_.Push(value);
  ring_head_ = (ring_head_ + 1) % m;
  ++stats_.samples;
  if (stats_.samples < m) return std::nullopt;

  ++stats_.windows_checked;
  const double mean = running_.mean();
  const double stddev = running_.stddev();
  const double inv = stddev > 1e-12 ? 1.0 / stddev : 0.0;

  // Oldest sample of the window is at ring_head_ (just advanced past the
  // newest), newest at ring_head_ - 1.
  const double first = (ring_[ring_head_] - mean) * inv;
  const double last =
      (ring_[(ring_head_ + m - 1) % m] - mean) * inv;
  if (cascade_.KilledByKim(cascade_.Kim(first, last), threshold_)) {
    return std::nullopt;
  }

  // Materialize the normalized window in time order.
  for (size_t k = 0; k < m; ++k) {
    window_[k] = (ring_[(ring_head_ + k) % m] - mean) * inv;
  }
  const double d = cascade_.Distance(window_, threshold_, &buffer_);
  if (d > threshold_) return std::nullopt;
  ++stats_.events;
  return Event{stats_.samples - 1, d};
}

}  // namespace warp
