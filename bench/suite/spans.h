// Span recorder for traced benchmark runs.
//
// A traced run wraps every call the benchmark makes into a layer in a
// span: name, start, end, parent span and trace id (shared by every span
// of one request or one timed cell). Spans are appended to per-thread
// buffers in memory and written out once, when the run ends, so recording
// costs two clock reads and a vector append. An untraced run records
// nothing: Enabled() is false and every call below returns at once.
//
// A span's self time is its duration minus the part of it covered by its
// children. Summed over every span of a tree, self times equal the root's
// duration; Summarize() reports both sums so a run can prove its spans
// nest.

#ifndef WARP_BENCH_SUITE_SPANS_H_
#define WARP_BENCH_SUITE_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace warp {
namespace bench {
namespace suite {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span.
  uint64_t trace = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t name = 0;  // Index returned by SpanName().
};

void EnableSpans(bool enabled);
bool SpansEnabled();
// Interns a span name; call once per name, outside hot loops.
uint32_t SpanName(const std::string& name);
const std::string& SpanNameOf(uint32_t name);
uint64_t NewSpanId();
// Appends to the calling thread's buffer (no-op while disabled).
void RecordSpan(const Span& span);
// Every span recorded so far, in no particular order; clears the buffers.
// Call only after the recording threads have finished.
std::vector<Span> TakeSpans();

// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(uint32_t name, uint64_t parent, uint64_t trace);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

struct SpanSummary {
  struct Row {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name;
  uint64_t spans = 0;
  double root_ms = 0.0;  // Summed duration of the root spans.
  double self_ms = 0.0;  // Summed self time of every span.
};

SpanSummary SummarizeSpans(const std::vector<Span>& spans);

// Writes the spans as tab-separated rows (trace, id, parent, name,
// start_ns, end_ns) under a header line.
bool WriteSpanFile(const std::string& path, const std::vector<Span>& spans,
                   std::string* error);

}  // namespace suite
}  // namespace bench
}  // namespace warp

#endif  // WARP_BENCH_SUITE_SPANS_H_
