// Bounded slow-query log: the top-K computed queries by engine time.
//
// The stats op's histograms say *that* p99 is bad; the slowlog says
// *which* queries made it bad. The engine records every computed
// (non-cache-hit) query; the log keeps only the `capacity` slowest by
// engine time, so memory is bounded no matter how long the server runs.
// The `slowlog` control op drains it (returns entries sorted by engine
// time descending, then clears), and the `stats` op reports a summary
// (capacity + pending count) without draining.
//
// Eviction contract (pinned by tests/serve/slowlog_test.cc): when full,
// a new record replaces the current minimum only if its engine time is
// strictly greater — on ties the incumbent survives, so admission order
// never changes the surviving set's engine times.

#ifndef WARP_SERVE_SLOWLOG_H_
#define WARP_SERVE_SLOWLOG_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace warp {
namespace serve {

struct SlowQueryRecord {
  uint64_t seq = 0;  // admission stamp (monotonic per log), set by Record
  int64_t id = 0;    // client-supplied request id
  std::string op;
  std::string dataset;
  std::string measure;
  double engine_us = 0.0;  // scan + kernel time (the ranking key)
  double total_us = 0.0;   // cache lookup + engine + merge
  uint64_t cells = 0;      // DP cells this query computed
  uint64_t scanned = 0;
  uint64_t total = 0;
  bool partial = false;
};

class SlowQueryLog {
 public:
  explicit SlowQueryLog(size_t capacity) : capacity_(capacity) {}

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  // Admits `record` if the log is not full or `record.engine_us` strictly
  // exceeds the current minimum (which is evicted). Thread-safe.
  void Record(SlowQueryRecord record);

  // Returns the entries sorted by engine_us descending (ties: earlier
  // admission first) and clears the log.
  std::vector<SlowQueryRecord> Drain();

  size_t capacity() const { return capacity_; }
  size_t size() const;

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  uint64_t next_seq_ = 0;
  std::vector<SlowQueryRecord> entries_;  // unordered until Drain
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_SLOWLOG_H_
