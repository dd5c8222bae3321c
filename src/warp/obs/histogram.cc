#include "warp/obs/histogram.h"

#include <mutex>
#include <vector>

namespace warp {
namespace obs {

const char* HistogramName(Histogram histogram) {
  static constexpr const char* kNames[kNumHistograms] = {
#define WARP_OBS_DECLARE_NAME(name, json_name) json_name,
      WARP_OBS_HISTOGRAM_LIST(WARP_OBS_DECLARE_NAME)
#undef WARP_OBS_DECLARE_NAME
  };
  const size_t index = static_cast<size_t>(histogram);
  return index < kNumHistograms ? kNames[index] : "invalid_histogram";
}

const char* GaugeName(Gauge gauge) {
  static constexpr const char* kNames[kNumGauges] = {
#define WARP_OBS_DECLARE_NAME(name, json_name) json_name,
      WARP_OBS_GAUGE_LIST(WARP_OBS_DECLARE_NAME)
#undef WARP_OBS_DECLARE_NAME
  };
  const size_t index = static_cast<size_t>(gauge);
  return index < kNumGauges ? kNames[index] : "invalid_gauge";
}

namespace {

// Global histogram-slab registry, leaked for the same teardown-safety
// reasons as the counter registry in warp/common/metrics.cc.
struct Registry {
  std::mutex mutex;
  std::vector<HistogramSlab*> slabs;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

namespace internal {

constinit thread_local HistogramSlab* local_histogram_slab = nullptr;

HistogramSlab* RegisterLocalHistogramSlab() {
  // Leaked on purpose: snapshots taken after this thread exits must
  // still see its contribution.
  HistogramSlab* slab = new HistogramSlab();
  Registry& registry = GlobalRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.slabs.push_back(slab);
  }
  local_histogram_slab = slab;
  return slab;
}

std::atomic<int64_t>& GaugeCell(Gauge gauge) {
  static std::array<std::atomic<int64_t>, kNumGauges>* cells =
      new std::array<std::atomic<int64_t>, kNumGauges>();
  return (*cells)[static_cast<size_t>(gauge)];
}

}  // namespace internal

uint64_t HistogramData::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based rank of the requested quantile, clamped into [1, count].
  const double exact_rank = q * static_cast<double>(count);
  uint64_t rank = static_cast<uint64_t>(exact_rank);
  if (static_cast<double>(rank) < exact_rank) ++rank;  // ceil
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) return HistogramBucketBound(i);
  }
  return HistogramBucketBound(kHistogramBuckets - 1);
}

HistogramSnapshot operator-(const HistogramSnapshot& a,
                            const HistogramSnapshot& b) {
  auto saturating = [](uint64_t x, uint64_t y) {
    return x >= y ? x - y : uint64_t{0};
  };
  HistogramSnapshot delta;
  for (size_t h = 0; h < kNumHistograms; ++h) {
    delta.series[h].count = saturating(a.series[h].count, b.series[h].count);
    delta.series[h].sum = saturating(a.series[h].sum, b.series[h].sum);
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      delta.series[h].buckets[i] =
          saturating(a.series[h].buckets[i], b.series[h].buckets[i]);
    }
  }
  return delta;
}

HistogramSnapshot SnapshotHistograms() {
  HistogramSnapshot snapshot;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const HistogramSlab* slab : registry.slabs) {
    for (size_t h = 0; h < kNumHistograms; ++h) {
      const HistogramSlab::Series& series = slab->series[h];
      HistogramData& data = snapshot.series[h];
      data.count += series.count.load(std::memory_order_relaxed);
      data.sum += series.sum.load(std::memory_order_relaxed);
      for (size_t i = 0; i < kHistogramBuckets; ++i) {
        data.buckets[i] += series.buckets[i].load(std::memory_order_relaxed);
      }
    }
  }
  return snapshot;
}

HistogramSnapshot HistogramsSince(const HistogramSnapshot& before) {
  return SnapshotHistograms() - before;
}

void ResetHistograms() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (HistogramSlab* slab : registry.slabs) {
    for (size_t h = 0; h < kNumHistograms; ++h) {
      HistogramSlab::Series& series = slab->series[h];
      series.count.store(0, std::memory_order_relaxed);
      series.sum.store(0, std::memory_order_relaxed);
      for (size_t i = 0; i < kHistogramBuckets; ++i) {
        series.buckets[i].store(0, std::memory_order_relaxed);
      }
    }
  }
}

GaugeSnapshot SnapshotGauges() {
  GaugeSnapshot snapshot;
  for (size_t g = 0; g < kNumGauges; ++g) {
    snapshot.values[g] = GaugeValue(static_cast<Gauge>(g));
  }
  return snapshot;
}

}  // namespace obs
}  // namespace warp
