#include "spans.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "suite.h"

namespace warp {
namespace bench {
namespace suite {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct Registry {
  std::mutex mutex;
  std::deque<std::string> names;  // A deque keeps SpanNameOf references valid.
  std::map<std::string, uint32_t> ids;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

thread_local std::vector<Span>* t_buffer = nullptr;

std::vector<Span>* LocalBuffer() {
  if (t_buffer == nullptr) {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.buffers.push_back(std::make_unique<std::vector<Span>>());
    t_buffer = registry.buffers.back().get();
  }
  return t_buffer;
}

// Length of the union of [start, end) intervals.
double CoveredNs(std::vector<std::pair<int64_t, int64_t>>* intervals) {
  std::sort(intervals->begin(), intervals->end());
  double covered = 0.0;
  int64_t reach = INT64_MIN;
  for (const auto& [start, end] : *intervals) {
    const int64_t from = std::max(start, reach);
    if (end > from) covered += static_cast<double>(end - from);
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

void EnableSpans(bool enabled) { g_enabled.store(enabled); }

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

uint32_t SpanName(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto it = registry.ids.find(name);
  if (it != registry.ids.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(registry.names.size());
  registry.names.push_back(name);
  registry.ids.emplace(name, id);
  return id;
}

const std::string& SpanNameOf(uint32_t name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  return registry.names.at(name);
}

uint64_t NewSpanId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void RecordSpan(const Span& span) {
  if (!SpansEnabled()) return;
  LocalBuffer()->push_back(span);
}

std::vector<Span> TakeSpans() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

ScopedSpan::ScopedSpan(uint32_t name, uint64_t parent, uint64_t trace) {
  if (!SpansEnabled()) return;
  span_.id = NewSpanId();
  span_.parent = parent;
  span_.trace = trace;
  span_.name = name;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = NowNs();
  RecordSpan(span_);
}

SpanSummary SummarizeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& span : spans) by_id[span.id] = &span;
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) continue;
    // Clip to the parent: only the covered part of the parent is not its
    // own time.
    const int64_t start = std::max(span.start_ns, parent->second->start_ns);
    const int64_t end = std::min(span.end_ns, parent->second->end_ns);
    if (end > start) children[span.parent].emplace_back(start, end);
  }

  SpanSummary summary;
  summary.spans = spans.size();
  for (const Span& span : spans) {
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    double self = duration;
    const auto it = children.find(span.id);
    if (it != children.end()) self -= CoveredNs(&it->second);
    SpanSummary::Row& row = summary.by_name[SpanNameOf(span.name)];
    ++row.count;
    row.total_ms += duration * 1e-6;
    row.self_ms += self * 1e-6;
    summary.self_ms += self * 1e-6;
    const bool root = span.parent == 0 || by_id.count(span.parent) == 0;
    if (root) summary.root_ms += duration * 1e-6;
  }
  return summary;
}

bool WriteSpanFile(const std::string& path, const std::vector<Span>& spans,
                   std::string* error) {
  std::ofstream out(path);
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  out << "trace\tid\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& span : spans) {
    out << span.trace << '\t' << span.id << '\t' << span.parent << '\t'
        << SpanNameOf(span.name) << '\t' << span.start_ns << '\t'
        << span.end_ns << '\n';
  }
  out.close();
  if (!out) {
    *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace suite
}  // namespace bench
}  // namespace warp
