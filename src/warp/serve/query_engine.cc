#include "warp/serve/query_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "warp/common/assert.h"
#include "warp/common/stopwatch.h"
#include "warp/core/cascade.h"
#include "warp/core/dtw.h"
#include "warp/core/measure.h"
#include "warp/mining/similarity_search.h"
#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Candidates per scan chunk. Fixed (never derived from the thread count),
// so chunk boundaries — and therefore the chunk-order merge — are
// identical at any parallelism.
constexpr size_t kScanGrain = 8;

// Per-request deadline state shared across scan workers. `expired` is
// monotone: once set, chunks stop scanning new candidates (their already
// scanned prefix stays in the merge, so the partial answer is exact over
// `scanned` candidates).
struct Deadline {
  bool enabled = false;
  double budget_ms = 0.0;
  Stopwatch watch;
  std::atomic<bool> expired{false};

  bool Expired() {
    if (!enabled) return false;
    if (expired.load(std::memory_order_relaxed)) return true;
    if (watch.ElapsedMillis() > budget_ms) {
      expired.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

// The k smallest distances a 1nn/knn scan has found so far, shared by
// every chunk of its plan: the published k-th value bounds each
// candidate's cascade whichever chunk, shard or thread runs it. It is the
// k-th smallest of a subset of the scan's distances, so it never falls
// below the final k-th best, and the cascade kills only strictly above
// it: no member of the final (distance, index) top-k is ever pruned.
struct SharedTopK {
  std::mutex mutex;
  std::vector<double> best;  // Ascending, at most k long; under `mutex`.
  std::atomic<double> kth{kInf};

  double Bound() const { return kth.load(std::memory_order_relaxed); }

  // A distance equal to the bound cannot lower the k-th value, so only a
  // strictly smaller one takes the lock.
  void Offer(double distance, size_t k) {
    if (!(distance < Bound())) return;
    const std::lock_guard<std::mutex> lock(mutex);
    best.insert(std::upper_bound(best.begin(), best.end(), distance),
                distance);
    if (best.size() > k) best.pop_back();
    if (best.size() == k) kth.store(best.back(), std::memory_order_relaxed);
  }
};

// Chunk-local result accumulator: bounded top-k for 1nn/knn, unbounded
// match list for range.
struct ChunkHits {
  std::vector<Neighbor> hits;  // Sorted by NeighborLess for top-k mode.
  uint64_t scanned = 0;
};

}  // namespace

struct QueryEngine::Impl {
  const DatasetStore* store;
  ResultCache* cache;
  SlowQueryLog* slowlog;
  std::unique_ptr<ThreadPool> pool;  // Null when threads == 1.
  PerThread<DtwWorkspace> workspaces;

  Impl(const DatasetStore* store_in, ResultCache* cache_in, size_t threads,
       SlowQueryLog* slowlog_in)
      : store(store_in),
        cache(cache_in),
        slowlog(slowlog_in),
        pool(ResolveThreadCount(threads) > 1
                 ? std::make_unique<ThreadPool>(ResolveThreadCount(threads))
                 : nullptr),
        workspaces(pool ? pool->size() : 1) {}

  size_t Threads() const { return pool ? pool->size() : 1; }

  // One shard's share of a scan plan. `chunk_offset` indexes the shard's
  // first chunk inside the plan-wide `chunks` array, which is laid out
  // shard-major (all of shard 0's chunks, then shard 1's, ...): a fixed
  // ordering derived only from the dataset's sharded layout, never from
  // scheduling, so the gather merge walks it identically at any thread
  // count.
  struct ShardSlice {
    const ShardedDataset* shard = nullptr;
    size_t chunk_offset = 0;
  };

  // One uncached request of a batch, decomposed for the batch work list:
  // MakePlan (serial, in request order — z-norm, registry resolution,
  // query envelope), its units (any worker, any order, interleaved with
  // every other plan's units), then merge, cache insert and FinishQuery
  // (serial, in request order). A scan contributes one unit per chunk of
  // kScanGrain shard-local candidates; the chunks SCATTER across the
  // dataset's shards and the merge GATHERS them in shard-major chunk
  // order, so neither scheduling nor the shard count ever shows in the
  // answer. A dist or subsequence plan contributes one unit, which writes
  // `point`.
  struct Plan {
    const ServeRequest* request = nullptr;
    ServeResponse* out = nullptr;  // The request's response slot.
    // Held so a concurrent re-registration cannot free the dataset the
    // request was validated against while its units run.
    std::shared_ptr<const StoredDataset> snapshot;
    std::string cache_key;
    double cache_us = 0.0;  // Lookup-miss time.
    std::vector<double> query;

    // Scan ops (1nn/knn/range) only.
    bool is_range = false;
    size_t k = 1;
    std::optional<Cascade> cascade;  // Exact-cDTW path only.
    size_t band_slot = StoredDataset::kNoBand;  // Candidate envelope slot.
    SeriesMeasure measure;  // Brute-force path only.
    Deadline deadline;
    SharedTopK top_k;  // 1nn/knn cross-chunk bound; unused for range.
    std::vector<ShardSlice> slices;  // One per shard, in shard order.
    std::vector<ChunkHits> chunks;   // Shard-major.
    // Telemetry accumulated across chunks. Integer nanoseconds and cell
    // counts merge by commutative fetch_add, so the totals are
    // scheduling-independent aside from the wall-clock readings
    // themselves (which never enter goldens or the cache key).
    std::atomic<uint64_t> engine_nanos{0};
    std::atomic<uint64_t> dtw_cells{0};

    // Dist and subsequence: the answer their one unit computes.
    ServeResponse point;
  };

  // One entry of the batch work list: a chunk of one scan plan (a
  // contiguous local candidate run inside one shard slice), or the whole
  // of a dist/subsequence plan.
  struct Unit {
    Plan* plan = nullptr;
    size_t slice = 0;  // Index into plan->slices.
    size_t begin = 0;
    size_t end = 0;  // Local candidate range within the shard.
  };

  // RAII chunk attribution: on destruction, adds the chunk's wall time
  // and the calling thread's dtw_cells delta to the plan's totals. Two
  // relaxed loads and two fetch_adds per kScanGrain candidates — far
  // below the cost of the cells themselves.
  struct ChunkWork {
    Plan& plan;
    uint64_t cells_before;
    Stopwatch watch;

    explicit ChunkWork(Plan& plan_in)
        : plan(plan_in),
          cells_before(obs::LocalCount(obs::Counter::kDtwCells)) {}
    ~ChunkWork() {
      plan.engine_nanos.fetch_add(
          static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9),
          std::memory_order_relaxed);
      plan.dtw_cells.fetch_add(
          obs::LocalCount(obs::Counter::kDtwCells) - cells_before,
          std::memory_order_relaxed);
    }
  };

  static ServeResponse ErrorResponse(const ServeRequest& request,
                                     std::string message) {
    ServeResponse response;
    response.id = request.id;
    response.op = request.op;
    response.ok = false;
    response.error = std::move(message);
    return response;
  }

  // Request-wide validation. Returns true and fills *snapshot on success,
  // else fills *failure.
  bool Resolve(const ServeRequest& request,
               std::shared_ptr<const StoredDataset>* snapshot,
               ServeResponse* failure) {
    if (!IsRegisteredMeasure(request.measure)) {
      *failure = ErrorResponse(request, "unknown measure: " + request.measure +
                                            " (expected one of " +
                                            RegisteredMeasureNames() + ")");
      return false;
    }
    *snapshot = store->Get(request.dataset);
    if (*snapshot == nullptr) {
      *failure = ErrorResponse(request,
                               "unknown dataset: " + request.dataset);
      return false;
    }
    if (request.query.empty()) {
      *failure = ErrorResponse(request, "request has no query values");
      return false;
    }
    for (const double v : request.query) {
      if (!std::isfinite(v)) {
        *failure = ErrorResponse(request, "query contains a non-finite value");
        return false;
      }
    }
    if ((request.op == QueryOp::kDist ||
         request.op == QueryOp::kSubsequence) &&
        request.index >= (*snapshot)->size()) {
      *failure = ErrorResponse(
          request, "series index " + std::to_string(request.index) +
                       " out of range (dataset has " +
                       std::to_string((*snapshot)->size()) + " series)");
      return false;
    }
    // The registry knows which lengths and params each measure's closure
    // WARP_CHECKs; refuse those here. A scan compares the query with
    // every series, a dist with one.
    const StoredDataset& stored = **snapshot;
    const size_t n = request.query.size();
    std::string input_error;
    if (request.op == QueryOp::kDist) {
      input_error = MeasureInputError(request.measure, request.params, n,
                                      stored.SeriesAt(request.index).size());
    } else if (IsScanOp(request.op) && stored.uniform_length > 0) {
      input_error = MeasureInputError(request.measure, request.params, n,
                                      stored.uniform_length);
    } else if (IsScanOp(request.op)) {
      for (size_t i = 0; i < stored.size() && input_error.empty(); ++i) {
        input_error = MeasureInputError(request.measure, request.params, n,
                                        stored.SeriesAt(i).size());
      }
    }
    if (!input_error.empty()) {
      *failure = ErrorResponse(request, std::move(input_error));
      return false;
    }
    if (request.op == QueryOp::kKnn && request.k == 0) {
      *failure = ErrorResponse(request, "knn requires k >= 1");
      return false;
    }
    if (request.op == QueryOp::kRange && !std::isfinite(request.threshold)) {
      *failure = ErrorResponse(request, "range requires a finite threshold");
      return false;
    }
    // Cluster scatter stamp: refuse mis-routed or stale sub-scans rather
    // than answer over the wrong candidates. The router retries against a
    // fresh epoch; a worker never guesses.
    if (request.require_epoch != 0 &&
        request.require_epoch != (*snapshot)->epoch) {
      *failure = ErrorResponse(
          request, "epoch mismatch: dataset '" + request.dataset +
                       "' is at epoch " + std::to_string((*snapshot)->epoch) +
                       ", request requires " +
                       std::to_string(request.require_epoch));
      return false;
    }
    if (request.shard_filter >= 0) {
      const size_t shard = static_cast<size_t>(request.shard_filter);
      if (shard >= (*snapshot)->shard_count()) {
        *failure = ErrorResponse(
            request, "shard " + std::to_string(shard) +
                         " out of range (dataset has " +
                         std::to_string((*snapshot)->shard_count()) +
                         " shards)");
        return false;
      }
      if ((request.op == QueryOp::kDist ||
           request.op == QueryOp::kSubsequence) &&
          (*snapshot)->router.ShardOf(request.index) != shard) {
        *failure = ErrorResponse(
            request,
            "series " + std::to_string(request.index) + " is owned by shard " +
                std::to_string((*snapshot)->router.ShardOf(request.index)) +
                ", not shard " + std::to_string(shard));
        return false;
      }
    }
    return true;
  }

  std::unique_ptr<Plan> MakePlan(
      const ServeRequest& request,
      std::shared_ptr<const StoredDataset> snapshot) {
    auto plan = std::make_unique<Plan>();
    plan->request = &request;
    plan->snapshot = std::move(snapshot);
    plan->query =
        request.znormalize ? ZNormalized(request.query) : request.query;
    if (!IsScanOp(request.op)) return plan;

    const StoredDataset& stored = *plan->snapshot;
    plan->k = request.op == QueryOp::kKnn ? request.k : 1;
    plan->is_range = request.op == QueryOp::kRange;
    // Exact-cDTW cascade only applies in the equal-length 1-NN setting;
    // everything else scans brute-force through the registry closure.
    if (request.measure == "cdtw" && stored.uniform_length > 0 &&
        plan->query.size() == stored.uniform_length) {
      const size_t band = ResolveBand(request.params, plan->query.size(),
                                      stored.uniform_length);
      plan->cascade.emplace(plan->query, band, request.params.cost);
      plan->band_slot = stored.BandSlot(band);
    } else {
      plan->measure = MakeMeasure(request.measure, request.params);
    }

    if (request.deadline_ms > 0.0) {
      plan->deadline.enabled = true;
      plan->deadline.budget_ms = request.deadline_ms;
    }
    // Scatter: one slice per shard, chunk boundaries laid per shard over
    // its LOCAL candidate order, packed shard-major into one chunk array.
    // A shard-filtered sub-scan (cluster worker) keeps only its own
    // shard's slice; chunk boundaries within that shard are unchanged, so
    // the worker's partial answer merges into exactly what the full plan
    // would have produced for that shard.
    plan->slices.reserve(stored.shard_count());
    size_t chunk_total = 0;
    for (const ShardedDataset& shard : stored.shards) {
      if (request.shard_filter >= 0 &&
          shard.shard_id != static_cast<size_t>(request.shard_filter)) {
        continue;
      }
      plan->slices.push_back({&shard, chunk_total});
      chunk_total += ChunkCount(0, shard.size(), kScanGrain);
    }
    plan->chunks.resize(chunk_total);
    return plan;
  }

  static void AppendUnits(Plan* plan, std::vector<Unit>* units) {
    if (!IsScanOp(plan->request->op)) {
      units->push_back({plan});
      return;
    }
    for (size_t s = 0; s < plan->slices.size(); ++s) {
      const size_t count = plan->slices[s].shard->size();
      for (size_t begin = 0; begin < count; begin += kScanGrain) {
        units->push_back(
            {plan, s, begin, std::min(begin + kScanGrain, count)});
      }
    }
  }

  // The one unit of a dist or subsequence plan.
  static void ExecutePoint(Plan& plan) {
    const ServeRequest& request = *plan.request;
    const TimeSeries& target = plan.snapshot->SeriesAt(request.index);
    const uint64_t cells_before = obs::LocalCount(obs::Counter::kDtwCells);
    const Stopwatch watch;
    ServeResponse& response = plan.point;
    if (request.op == QueryOp::kDist) {
      response.scanned = response.total = 1;
      response.distance = MakeMeasure(request.measure, request.params)(
          plan.query, target.view());
    } else {
      if (target.size() < plan.query.size()) {
        response = ErrorResponse(request,
                                 "query longer than target series " +
                                     std::to_string(request.index));
        return;
      }
      const SubsequenceMatch match = FindBestMatch(
          target.view(), plan.query,
          ResolveBand(request.params, plan.query.size(), plan.query.size()),
          request.params.cost, nullptr);
      response.scanned = response.total =
          target.size() - plan.query.size() + 1;
      response.position = match.position;
      response.distance = match.distance;
    }
    response.id = request.id;
    response.op = request.op;
    response.ok = true;
    response.trace.engine_us = watch.ElapsedMicros();
    response.trace.cells =
        obs::LocalCount(obs::Counter::kDtwCells) - cells_before;
  }

  // Scans one shard's local candidates [begin, end) — one chunk — into
  // the plan's per-chunk accumulator. Safe to run concurrently with any
  // other unit of any plan; `workspace` must be exclusive to the caller.
  static void ScanRange(Plan& plan, const ShardSlice& slice, size_t begin,
                        size_t end, DtwWorkspace& workspace) {
    ChunkWork work(plan);
    const ShardedDataset& shard = *slice.shard;
    ChunkHits& out = plan.chunks[slice.chunk_offset + begin / kScanGrain];
    const ServeRequest& request = *plan.request;
    const std::optional<Cascade>& cascade = plan.cascade;
    const std::vector<Envelope>* candidate_envelopes =
        plan.band_slot == StoredDataset::kNoBand
            ? nullptr
            : &shard.envelopes[plan.band_slot];
    // LB_Kim for the whole chunk off the shard's contiguous head/tail
    // caches. The values do not depend on the running bound, so computing
    // them first changes no kill decision; each is counted when the loop
    // below reaches its candidate, so an expired deadline counts none of
    // the rest.
    WARP_DCHECK(end - begin <= kScanGrain);
    std::array<double, kScanGrain> kims;
    if (cascade) {
      cascade->KimBlock(shard.head.data() + begin, shard.tail.data() + begin,
                        end - begin, kims.data());
    }
    for (size_t i = begin; i < end; ++i) {
      if (plan.deadline.Expired()) return;
      ++out.scanned;
      // The pruning threshold: anything with distance strictly above it
      // cannot enter the answer. Range queries use the fixed request
      // threshold; 1nn and knn the plan-wide k-th best so far. Both are
      // valid upper bounds no matter how candidates are partitioned into
      // chunks or shards, and the cascade kills only strictly above
      // them, so re-sharding or scheduling can change which candidates
      // get pruned but never the answer.
      const double bound =
          plan.is_range ? request.threshold : plan.top_k.Bound();
      double distance;
      if (cascade) {
        if (cascade->KilledByKim(kims[i - begin], bound)) continue;
        distance = cascade->Distance(
            shard.data[i].view(), bound, &workspace,
            candidate_envelopes != nullptr ? &(*candidate_envelopes)[i]
                                           : nullptr);
        if (distance == kInf) continue;
        // Brute-force scans read no bound, so only the cascade publishes.
        if (!plan.is_range) plan.top_k.Offer(distance, plan.k);
      } else {
        distance = plan.measure(plan.query, shard.data[i].view());
      }
      // Hits carry GLOBAL series indices, so the gather merge and the
      // (distance, index) total order are shard-layout-independent.
      const size_t global = shard.global_index[i];
      if (plan.is_range) {
        if (distance <= request.threshold) {
          out.hits.push_back({global, shard.data[i].label(), distance});
        }
      } else {
        AddTopK(&out.hits, {global, shard.data[i].label(), distance},
                plan.k);
      }
    }
  }

  // Chunk-order gather merge on the calling thread: deterministic at any
  // thread count. Shard-layout-independent too: top-k merging selects the
  // k smallest under the strict (distance, index) order (a set property),
  // and range hits are re-sorted into global index order (a no-op at 1
  // shard, where chunk concatenation is already index-ordered) — both in
  // MergeNeighbors, the cluster router's merge too.
  static ServeResponse MergeScan(Plan& plan) {
    const Stopwatch merge_watch;
    const ServeRequest& request = *plan.request;
    ServeResponse response;
    response.id = request.id;
    response.op = request.op;
    response.ok = true;
    // Candidate universe of THIS plan: the whole dataset normally, one
    // shard's share under a cluster sub-scan — so the router's summed
    // totals equal the single-process total.
    for (const ShardSlice& slice : plan.slices) {
      response.total += slice.shard->size();
    }
    for (const ChunkHits& chunk : plan.chunks) {
      response.scanned += chunk.scanned;
    }
    response.partial = response.scanned < response.total;
    if (response.partial) {
      WARP_COUNT(obs::Counter::kServeDeadlineExceeded);
    }
    size_t shard_scans = 0;
    for (const ShardSlice& slice : plan.slices) {
      if (slice.shard->size() > 0) ++shard_scans;
    }
    WARP_COUNT_ADD(obs::Counter::kServeShardScans, shard_scans);
    std::vector<std::vector<Neighbor>> parts;
    parts.reserve(plan.chunks.size());
    for (ChunkHits& chunk : plan.chunks) parts.push_back(std::move(chunk.hits));
    response.neighbors = MergeNeighbors(request.op, plan.k, parts);
    response.trace.engine_us =
        static_cast<double>(
            plan.engine_nanos.load(std::memory_order_relaxed)) *
        1e-3;
    response.trace.cells = plan.dtw_cells.load(std::memory_order_relaxed);
    response.trace.merge_us = merge_watch.ElapsedMicros();
    return response;
  }

  // Final per-query accounting, for hits and computed answers alike:
  // stamps the trace-echo flag, records the stage/latency/work
  // histograms, and feeds computed queries to the slow-query log. Latency
  // here is engine-side (lookup + scan + merge); parse/queue/serialize
  // stages are recorded by their own layers.
  void FinishQuery(const ServeRequest& request, ServeResponse* response) {
    StageTrace& t = response->trace;
    t.requested = request.trace;
    const double latency_us = t.cache_us + t.engine_us + t.merge_us;
    WARP_HISTOGRAM_RECORD_US(LatencyHistogramForOp(request.op), latency_us);
    WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageCacheLookup,
                             t.cache_us);
    if (t.from_cache) return;
    WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageEngineScan,
                             t.engine_us);
    WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageMerge, t.merge_us);
    WARP_HISTOGRAM_RECORD(obs::Histogram::kServeCellsPerQuery, t.cells);
    if (slowlog != nullptr && response->ok) {
      SlowQueryRecord record;
      record.id = response->id;
      record.op = QueryOpName(request.op);
      record.dataset = request.dataset;
      record.measure = request.measure;
      record.engine_us = t.engine_us;
      record.total_us = latency_us;
      record.cells = t.cells;
      record.scanned = response->scanned;
      record.total = response->total;
      record.partial = response->partial;
      slowlog->Record(std::move(record));
    }
  }

  // The one request path; Run is a batch of one. Step 1, in request
  // order: resolve, probe the cache, plan every miss. Every probe comes
  // before any insert, so the batch reads the cache as it stood when the
  // batch began: a duplicate inside a batch is computed, not served from
  // its twin, at any thread count. Step 2: every plan's units as one
  // ParallelFor work list, so the pool stays saturated however the batch
  // divides into requests (inline on this thread when the pool is null).
  // Step 3, in request order: merge, cache insert, FinishQuery.
  void Answer(std::span<const ServeRequest> requests,
              ServeResponse* responses) {
    std::vector<std::unique_ptr<Plan>> plans;
    for (size_t i = 0; i < requests.size(); ++i) {
      WARP_COUNT(obs::Counter::kServeRequests);
      const ServeRequest& request = requests[i];
      ServeResponse& response = responses[i];
      std::shared_ptr<const StoredDataset> snapshot;
      if (!Resolve(request, &snapshot, &response)) continue;
      std::string key = CacheKey(request, snapshot->epoch);
      const Stopwatch lookup;
      const bool hit = cache != nullptr && cache->Lookup(key, &response);
      const double cache_us = cache != nullptr ? lookup.ElapsedMicros() : 0.0;
      if (hit) {
        response.id = request.id;
        response.trace.from_cache = true;
        response.trace.cache_us = cache_us;
        FinishQuery(request, &response);
        continue;
      }
      plans.push_back(MakePlan(request, std::move(snapshot)));
      plans.back()->out = &response;
      plans.back()->cache_key = std::move(key);
      plans.back()->cache_us = cache_us;
    }

    std::vector<Unit> units;
    for (const std::unique_ptr<Plan>& plan : plans) {
      AppendUnits(plan.get(), &units);
    }
    ParallelFor(pool.get(), 0, units.size(), 1,
                [&](size_t begin, size_t end, size_t worker) {
                  for (size_t u = begin; u < end; ++u) {
                    Plan& plan = *units[u].plan;
                    if (IsScanOp(plan.request->op)) {
                      ScanRange(plan, plan.slices[units[u].slice],
                                units[u].begin, units[u].end,
                                workspaces[worker]);
                    } else {
                      ExecutePoint(plan);
                    }
                  }
                });

    for (const std::unique_ptr<Plan>& plan : plans) {
      ServeResponse response = IsScanOp(plan->request->op)
                                   ? MergeScan(*plan)
                                   : std::move(plan->point);
      response.trace.cache_us = plan->cache_us;
      if (cache != nullptr) cache->Insert(plan->cache_key, response);
      FinishQuery(*plan->request, &response);
      *plan->out = std::move(response);
    }
  }
};

QueryEngine::QueryEngine(const DatasetStore* store, ResultCache* cache,
                         size_t threads, SlowQueryLog* slowlog)
    : impl_(std::make_unique<Impl>(store, cache, threads, slowlog)) {
  WARP_CHECK(store != nullptr);
}

QueryEngine::~QueryEngine() = default;

size_t QueryEngine::threads() const { return impl_->Threads(); }

ServeResponse QueryEngine::Run(const ServeRequest& request) {
  ServeResponse response;
  impl_->Answer({&request, 1}, &response);
  return response;
}

void QueryEngine::RunBatch(const std::vector<ServeRequest>& requests,
                           std::vector<ServeResponse>* responses) {
  responses->assign(requests.size(), ServeResponse{});
  impl_->Answer(requests, responses->data());
}

}  // namespace serve
}  // namespace warp
