// Typed requests and responses for the query-serving subsystem.
//
// One struct pair shared by the query engine (execution), the result
// cache (keying), the protocol layer (JSON <-> struct), and the in-process
// bench — so a request built from a wire line and one built directly by a
// test are the same object and provably take the same code path.

#ifndef WARP_SERVE_REQUEST_H_
#define WARP_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/core/measure.h"
#include "warp/core/neighbor.h"
#include "warp/obs/histogram.h"

namespace warp {
namespace serve {

// Query operations the engine executes. The server additionally handles
// control operations (load/info/stats/ping/shutdown) that never reach the
// engine; see docs/SERVING.md.
enum class QueryOp {
  k1Nn,          // nearest neighbor of `query` in `dataset`
  kKnn,          // k nearest neighbors
  kRange,        // all series with distance <= threshold
  kDist,         // distance between `query` and series `index`
  kSubsequence,  // best-matching window of series `index` for `query`
};

// "1nn", "knn", ... — the wire op names.
const char* QueryOpName(QueryOp op);
bool ParseQueryOp(const std::string& name, QueryOp* op);

// 1nn / knn / range: the ops that scan every candidate.
bool IsScanOp(QueryOp op);

// Per-request stage timings (docs/SERVING.md, "Serving telemetry").
// Wall-clock values: they are recorded into the obs histograms for every
// request, echoed back in the response only when the request carried
// "trace":true, and are never part of the result-cache key or of golden
// comparisons. All fields are microseconds except the two flags.
struct StageTrace {
  bool requested = false;   // request asked for the trace echo
  bool from_cache = false;  // answered from the result cache
  double parse_us = 0.0;      // wire line -> ServeRequest (server)
  double cache_us = 0.0;      // result-cache lookup (engine)
  double queue_us = 0.0;      // submit -> batch dispatch (batcher)
  double engine_us = 0.0;     // candidate scan / kernel work (engine)
  double merge_us = 0.0;      // per-chunk result merge (engine)
  double serialize_us = 0.0;  // ServeResponse -> wire line (protocol)
  // DP cells this execution computed (dtw_cells delta; 0 on cache hits
  // and under WARP_PROFILE=OFF). Deterministic, unlike the timings.
  uint64_t cells = 0;
};

struct ServeRequest {
  int64_t id = 0;
  QueryOp op = QueryOp::k1Nn;
  std::string dataset;
  std::string measure = "cdtw";
  MeasureParams params;        // band/window/cost + measure knobs.
  size_t k = 1;                // knn only.
  double threshold = 0.0;      // range only.
  size_t index = 0;            // dist / subsequence target series.
  std::vector<double> query;   // the query series.
  bool znormalize = true;      // z-normalize `query` before matching.
  double deadline_ms = 0.0;    // <= 0: no deadline.
  bool trace = false;          // echo stage timings in the response.

  // Cluster scatter stamp (wire fields "shard"/"shard_epoch"). A router
  // stamps each sub-scan with the target worker's shard and the dataset
  // epoch it planned against; a worker refuses mis-routed or stale work
  // instead of answering wrong. shard_filter < 0 means "scan all shards"
  // (the single-process default); require_epoch 0 means "any epoch".
  long shard_filter = -1;
  uint64_t require_epoch = 0;
};

// One scan answer (warp/core/neighbor.h), named serve::Neighbor on the
// serving side.
using warp::Neighbor;

// The one neighbor merge, for the engine's chunk gather and the router's
// shard gather: range hits concatenate and sort by index; 1nn/knn keep the
// k smallest under NeighborLess (k = 1 for 1nn) — a set property, so how
// the candidates were split into `parts` never shows in the answer.
std::vector<Neighbor> MergeNeighbors(
    QueryOp op, size_t k, const std::vector<std::vector<Neighbor>>& parts);

struct ServeResponse {
  int64_t id = 0;
  bool ok = false;
  std::string error;
  QueryOp op = QueryOp::k1Nn;

  // Deadline bookkeeping: `partial` is set when the per-request budget
  // expired before every candidate was scanned; `scanned` of `total`
  // candidates were fully considered (the answer is exact over those).
  bool partial = false;
  uint64_t scanned = 0;
  uint64_t total = 0;

  // 1nn / knn / range results, ordered by (distance, index) for knn and
  // by index for range.
  std::vector<Neighbor> neighbors;

  // dist / subsequence results.
  double distance = 0.0;
  size_t position = 0;

  // Shards that contributed no answer because their worker was down
  // (cluster router only; always empty from a single-process server).
  // Serialized only when non-empty, so single-process goldens are
  // unchanged. Implies `partial`.
  std::vector<size_t> shards_missing;

  // Stage timings for this request. Never cached (ResultCache::Insert
  // clears it), never compared in goldens; serialized only when
  // `trace.requested`.
  StageTrace trace;
};

// The latency histogram a query op records into.
obs::Histogram LatencyHistogramForOp(QueryOp op);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_REQUEST_H_
