// Query execution against the dataset store.
//
// Resolves a typed ServeRequest (warp/serve/request.h) through the
// measure registry and answers it from the store's precomputed LB index:
// for cDTW each candidate runs the cascade of warp/core/cascade.h,
//
//   LB_Kim (head/tail cache) -> LB_Keogh(query envelope, candidate)
//   (built once per request) -> LB_Keogh(candidate envelope, query)
//   (precomputed) -> early-abandoning cDTW
//
// with each rung pruned against the current best-so-far, k-th best or
// range threshold. Other registered measures scan brute-force through
// their registry closure. Scans run on the engine's ThreadPool in
// fixed-size chunks; per-chunk winners merge on the calling thread by the
// total order (distance, index), so every answer is bitwise-identical at
// any thread count — pruning thresholds only decide how much work is
// skipped, never which candidate wins.
//
// Deadlines: a request with deadline_ms > 0 carries a wall-clock budget,
// counted from when its batch plans it. When it expires mid-scan the
// remaining candidates are skipped and the response is flagged `partial`
// with `scanned`/`total` counts — a degraded-but-honest answer instead of
// a blocked worker. Partial responses never enter the result cache.

#ifndef WARP_SERVE_QUERY_ENGINE_H_
#define WARP_SERVE_QUERY_ENGINE_H_

#include <memory>
#include <vector>

#include "warp/common/parallel.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/request.h"
#include "warp/serve/result_cache.h"
#include "warp/serve/slowlog.h"

namespace warp {
namespace serve {

class QueryEngine {
 public:
  // `store` must outlive the engine; `cache` may be nullptr (no caching);
  // `slowlog` may be nullptr (computed queries are not logged).
  // threads: 1 = serial on the calling thread, 0 = DefaultThreadCount(),
  // N = N pool workers.
  QueryEngine(const DatasetStore* store, ResultCache* cache,
              size_t threads = 1, SlowQueryLog* slowlog = nullptr);
  virtual ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  size_t threads() const;

  // Answers one request as a batch of one, through the same code as
  // RunBatch. Always returns a response with the request's id; failures
  // set ok=false and `error`. Must be called from one orchestrating
  // thread at a time (the batcher serializes callers).
  ServeResponse Run(const ServeRequest& request);

  // Answers a batch in three steps. (1) In request order, resolve each
  // request, probe the cache, and plan each miss. (2) Run every plan's
  // units as one work list over the pool: a scan contributes its fixed
  // 8-candidate chunks, a dist or subsequence one unit. (3) In request
  // order, merge, insert into the cache and record telemetry. Every probe
  // precedes every insert, so a batch reads the cache as it stood when
  // the batch began; a duplicate inside a batch is computed, not served
  // from its twin. Each response is bitwise-identical to Run() on its
  // request alone, at any thread count.
  // Virtual so a test engine can hold a batch in flight.
  virtual void RunBatch(const std::vector<ServeRequest>& requests,
                        std::vector<ServeResponse>* responses);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_QUERY_ENGINE_H_
