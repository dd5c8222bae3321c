#include "warp/common/metrics.h"

#include <mutex>
#include <vector>

namespace warp {
namespace obs {

const char* CounterName(Counter counter) {
  static constexpr const char* kNames[kNumCounters] = {
#define WARP_OBS_DECLARE_NAME(name, json_name) json_name,
      WARP_OBS_COUNTER_LIST(WARP_OBS_DECLARE_NAME)
#undef WARP_OBS_DECLARE_NAME
  };
  const size_t index = static_cast<size_t>(counter);
  return index < kNumCounters ? kNames[index] : "invalid_counter";
}

namespace {

// Global slab registry. Intentionally leaked (never destroyed) so that
// threads whose destructors run during static teardown can still touch
// their slabs safely — the same rationale as the leaky singletons in
// parallel.cc.
struct Registry {
  std::mutex mutex;
  std::vector<CounterSlab*> slabs;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

}  // namespace

namespace internal {

constinit thread_local CounterSlab* local_slab = nullptr;

CounterSlab* RegisterLocalSlab() {
  // Leaked on purpose: snapshots taken after this thread exits must still
  // see its contribution, and lock-free readers may hold the pointer.
  CounterSlab* slab = new CounterSlab();
  Registry& registry = GlobalRegistry();
  {
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.slabs.push_back(slab);
  }
  local_slab = slab;
  return slab;
}

}  // namespace internal

MetricsSnapshot operator-(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  MetricsSnapshot delta;
  for (size_t i = 0; i < kNumCounters; ++i) {
    delta.values[i] = a.values[i] >= b.values[i] ? a.values[i] - b.values[i]
                                                 : uint64_t{0};
  }
  return delta;
}

MetricsSnapshot SnapshotCounters() {
  MetricsSnapshot snapshot;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (const CounterSlab* slab : registry.slabs) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      snapshot.values[i] += slab->values[i].load(std::memory_order_relaxed);
    }
  }
  return snapshot;
}

MetricsSnapshot CountersSince(const MetricsSnapshot& before) {
  return SnapshotCounters() - before;
}

void ResetCounters() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  for (CounterSlab* slab : registry.slabs) {
    for (size_t i = 0; i < kNumCounters; ++i) {
      slab->values[i].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace obs
}  // namespace warp
