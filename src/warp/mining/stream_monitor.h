// Real-time streaming query monitor.
//
// The workload in the paper's footnote 3: Schneider et al. wondered how
// FastDTW could ever reach "real-time capability" for gesture spotting,
// while exact cDTW had been monitoring streams at millions of samples per
// second for a decade (the UCR-suite demo). This class is that primitive:
// it ingests one sample at a time, maintains the trailing window's
// running mean/stddev, and fires an event whenever the z-normalized
// trailing window matches the query under cDTW_band below a threshold —
// using the same LB_Kim -> LB_Keogh -> early-abandon cascade as offline
// search, so most samples cost O(1)..O(m) and almost none cost a DTW.

#ifndef WARP_MINING_STREAM_MONITOR_H_
#define WARP_MINING_STREAM_MONITOR_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "warp/common/cost.h"
#include "warp/core/cascade.h"
#include "warp/core/dtw.h"
#include "warp/ts/znorm.h"

namespace warp {

class StreamMonitor {
 public:
  struct Event {
    uint64_t end_time = 0;  // Sample index at which the window completed.
    double distance = 0.0;  // cDTW distance of the matching window.
  };

  struct Stats : CascadeCounts {
    uint64_t samples = 0;
    uint64_t windows_checked = 0;
    uint64_t events = 0;
  };

  // `query` is z-normalized internally; `threshold` is in the same units
  // as CdtwDistance on z-normalized series.
  StreamMonitor(std::vector<double> query, size_t band, double threshold,
                CostKind cost = CostKind::kSquared);

  // The cascade points into the monitor's own query and stats.
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  // Feeds one sample; returns an event iff the window ending at this
  // sample matches. Event checks begin once `query.size()` samples have
  // been seen.
  std::optional<Event> Push(double value);

  const Stats& stats() const { return stats_; }
  uint64_t time() const { return stats_.samples; }

 private:
  std::vector<double> query_;
  double threshold_;
  Stats stats_;
  Cascade cascade_;

  std::vector<double> ring_;   // Circular buffer of the last m samples.
  size_t ring_head_ = 0;       // Next write slot.
  RunningMeanStd running_;
  std::vector<double> window_; // Scratch: normalized trailing window.
  DtwWorkspace buffer_;
};

}  // namespace warp

#endif  // WARP_MINING_STREAM_MONITOR_H_
