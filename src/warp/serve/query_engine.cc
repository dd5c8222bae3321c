#include "warp/serve/query_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "warp/common/assert.h"
#include "warp/common/stopwatch.h"
#include "warp/core/dtw.h"
#include "warp/core/envelope.h"
#include "warp/core/lower_bounds.h"
#include "warp/mining/similarity_search.h"
#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"
#include "warp/simd/batch.h"
#include "warp/simd/dispatch.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Candidates per scan chunk. Fixed (never derived from the thread count),
// so chunk boundaries — and therefore the chunk-order merge — are
// identical at any parallelism.
constexpr size_t kScanGrain = 8;

// The endpoint cost LB_Kim is built from; inlined here so the cascade's
// first rung reads only the store's head/tail caches.
double PointCost(double a, double b, CostKind kind) {
  const double d = a - b;
  return kind == CostKind::kAbsolute ? std::fabs(d) : d * d;
}

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

// Monotone shared upper bound for cross-chunk pruning. Only ever
// decreases; pruning tests are STRICT (lb > bound), so a candidate tying
// the final best is never pruned and the (distance, index) winner is
// scheduling-independent.
struct SharedBound {
  std::atomic<double> value{kInf};

  double Get() const { return value.load(std::memory_order_relaxed); }

  void Lower(double candidate) {
    double current = value.load(std::memory_order_relaxed);
    while (candidate < current &&
           !value.compare_exchange_weak(current, candidate,
                                        std::memory_order_relaxed)) {
    }
  }
};

// Chunk-local result accumulator: bounded top-k for 1nn/knn, unbounded
// match list for range.
struct ChunkHits {
  std::vector<Neighbor> hits;  // Sorted by NeighborLess for top-k mode.
  uint64_t scanned = 0;

  double KthBound(size_t k) const {
    return hits.size() == k ? hits.back().distance : kInf;
  }
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

  // How a scan executes: on `pool` with per-worker workspaces, or inline
  // on the calling thread pinned to workspace slot `fixed_worker`.
  struct ExecContext {
    ThreadPool* pool = nullptr;
    size_t fixed_worker = 0;
  };

  DtwWorkspace& WorkspaceFor(const ExecContext& ctx, size_t worker) {
    return workspaces[ctx.pool != nullptr ? worker : ctx.fixed_worker];
  }

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

  // One scan request decomposed for chunk-level execution: Prepare (once,
  // serial — z-norm, query envelope, registry resolution), ScanRange (any
  // worker, any order, any interleaving with other plans' chunks), Merge
  // (once, serial, fixed chunk order). The decomposition is what lets
  // RunBatch flatten a whole group of requests into one (request, chunk)
  // work list without changing any answer: chunk boundaries and merge
  // order never depend on scheduling. Since PR 9 the prepared chunks
  // SCATTER across the dataset's shards (each chunk is a contiguous run
  // of one shard's local candidates) and the merge GATHERS them in
  // shard-major chunk order — sharding only re-arranges which chunk a
  // candidate lands in, so with the strict pruning rules below the
  // answer stays bitwise-identical at any shard count.
  struct ScanPlan {
    size_t slot = 0;  // Batch response index (RunBatch bookkeeping).
    const ServeRequest* request = nullptr;
    const StoredDataset* stored = nullptr;
    std::string cache_key;

    std::vector<double> query;
    bool cascade = false;
    bool is_range = false;
    size_t k = 1;
    size_t band = 0;
    Envelope query_envelope;
    size_t band_slot = StoredDataset::kNoBand;  // Candidate envelope slot.
    SeriesMeasure measure;  // Brute-force path only.

    Deadline deadline;
    SharedBound shared;  // 1nn cross-chunk bound; unused for knn/range.
    std::vector<ShardSlice> slices;  // One per shard, in shard order.
    std::vector<ChunkHits> chunks;   // Shard-major.

    // Telemetry accumulated across chunks. Integer nanoseconds and cell
    // counts merge by commutative fetch_add, so the totals are
    // scheduling-independent aside from the wall-clock readings
    // themselves (which never enter goldens or the cache key).
    std::atomic<uint64_t> engine_nanos{0};
    std::atomic<uint64_t> dtw_cells{0};
    double cache_us = 0.0;  // Lookup-miss time, stamped by the caller.
  };

  // RAII chunk attribution: on destruction, adds the chunk's wall time
  // and the calling thread's dtw_cells delta to the plan's totals. Two
  // relaxed loads and two fetch_adds per kScanGrain candidates — far
  // below the cost of the cells themselves.
  struct ChunkWork {
    ScanPlan& plan;
    uint64_t cells_before;
    Stopwatch watch;

    explicit ChunkWork(ScanPlan& plan_in)
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

  // Request-wide validation shared by Run and RunBatch. Returns true and
  // fills *snapshot on success, else fills *failure.
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

  // The Sakoe–Chiba half-width this request resolves to against a series
  // of length `other`, mirroring the measure registry's rule.
  static size_t ResolveBand(const ServeRequest& request, size_t other) {
    if (request.params.band_cells >= 0) {
      return static_cast<size_t>(request.params.band_cells);
    }
    const size_t longer = std::max(request.query.size(), other);
    const long band = std::lround(request.params.window_fraction *
                                  static_cast<double>(longer));
    return band < 0 ? 0 : static_cast<size_t>(band);
  }

  ServeResponse Execute(const ServeRequest& request,
                        const StoredDataset& stored, const ExecContext& ctx) {
    switch (request.op) {
      case QueryOp::kDist:
        return ExecuteDist(request, stored);
      case QueryOp::kSubsequence:
        return ExecuteSubsequence(request, stored);
      case QueryOp::k1Nn:
      case QueryOp::kKnn:
      case QueryOp::kRange:
        return ExecuteScan(request, stored, ctx);
    }
    return ErrorResponse(request, "unhandled operation");
  }

  ServeResponse ExecuteDist(const ServeRequest& request,
                            const StoredDataset& stored) {
    const uint64_t cells_before = obs::LocalCount(obs::Counter::kDtwCells);
    const Stopwatch watch;
    const std::vector<double> query = PrepareQuery(request);
    const SeriesMeasure measure =
        MakeMeasure(request.measure, request.params);
    ServeResponse response;
    response.id = request.id;
    response.op = request.op;
    response.ok = true;
    response.scanned = response.total = 1;
    response.distance = measure(query, stored.SeriesAt(request.index).view());
    response.trace.engine_us = watch.ElapsedMicros();
    response.trace.cells =
        obs::LocalCount(obs::Counter::kDtwCells) - cells_before;
    return response;
  }

  ServeResponse ExecuteSubsequence(const ServeRequest& request,
                                   const StoredDataset& stored) {
    const uint64_t cells_before =
        obs::LocalCount(obs::Counter::kSubsequenceCells);
    const Stopwatch watch;
    const std::vector<double> query = PrepareQuery(request);
    const TimeSeries& haystack = stored.SeriesAt(request.index);
    if (haystack.size() < query.size()) {
      return ErrorResponse(request,
                           "query longer than target series " +
                               std::to_string(request.index));
    }
    const size_t band = ResolveBand(request, query.size());
    const SubsequenceMatch match = FindBestMatch(
        haystack.view(), query, band, request.params.cost, nullptr);
    ServeResponse response;
    response.id = request.id;
    response.op = request.op;
    response.ok = true;
    response.scanned = response.total = haystack.size() - query.size() + 1;
    response.position = match.position;
    response.distance = match.distance;
    response.trace.engine_us = watch.ElapsedMicros();
    response.trace.cells =
        obs::LocalCount(obs::Counter::kSubsequenceCells) - cells_before;
    return response;
  }

  std::vector<double> PrepareQuery(const ServeRequest& request) {
    if (!request.znormalize) return request.query;
    return ZNormalized(request.query);
  }

  std::unique_ptr<ScanPlan> PrepareScan(const ServeRequest& request,
                                        const StoredDataset& stored) {
    auto plan = std::make_unique<ScanPlan>();
    plan->request = &request;
    plan->stored = &stored;
    plan->query = PrepareQuery(request);
    plan->k = request.op == QueryOp::kKnn ? request.k : 1;
    plan->is_range = request.op == QueryOp::kRange;

    // Exact-cDTW cascade only applies in the equal-length 1-NN setting;
    // everything else scans brute-force through the registry closure.
    plan->cascade = request.measure == "cdtw" && stored.uniform_length > 0 &&
                    plan->query.size() == stored.uniform_length;
    plan->band = ResolveBand(request, stored.uniform_length > 0
                                          ? stored.uniform_length
                                          : plan->query.size());
    if (plan->cascade) {
      plan->query_envelope = ComputeEnvelope(plan->query, plan->band);
      plan->band_slot = stored.BandSlot(plan->band);
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

  // Scans one shard's local candidates [begin, end) — one chunk — into
  // the plan's per-chunk accumulator. Safe to run concurrently with any
  // other chunk of any plan; `workspace` must be exclusive to the caller.
  void ScanRange(ScanPlan& plan, const ShardSlice& slice, size_t begin,
                 size_t end, DtwWorkspace& workspace) {
    ChunkWork work(plan);
    const ShardedDataset& shard = *slice.shard;
    ChunkHits& out = plan.chunks[slice.chunk_offset + begin / kScanGrain];
    const ServeRequest& request = *plan.request;
    const std::vector<double>& query = plan.query;
    const CostKind cost = request.params.cost;
    const std::vector<Envelope>* candidate_envelopes =
        plan.band_slot == StoredDataset::kNoBand
            ? nullptr
            : &shard.envelopes[plan.band_slot];
    // Rung-1 LB_Kim for the whole chunk in vector lanes, off the shard's
    // contiguous head/tail caches. The values are independent of the
    // running bound, so hoisting them changes no kill decision, and the
    // per-candidate call counting below (including its interaction with
    // deadline expiry) is untouched.
    WARP_DCHECK(end - begin <= kScanGrain);
    std::array<double, kScanGrain> kim_cache;
    const bool batched_kim = plan.cascade && query.size() >= 2 &&
                             end > begin && simd::SimdActive();
    if (batched_kim) {
      WithCost(cost, [&](auto c) {
        simd::LbKimBatch<decltype(c)>(
            query.front(), query.back(), shard.head.data() + begin,
            shard.tail.data() + begin, end - begin, kim_cache.data());
      });
    }
    for (size_t i = begin; i < end; ++i) {
      if (plan.deadline.Expired()) return;
      ++out.scanned;
      WARP_COUNT(obs::Counter::kCascadeCandidates);
      // The pruning threshold: anything with distance strictly above it
      // cannot enter the answer. Range queries use the fixed request
      // threshold; 1nn combines the shared bound with the chunk-local
      // best; knn uses the chunk-local k-th best. All three are valid
      // upper bounds no matter how candidates are partitioned into
      // chunks or shards, and the tests are STRICT, so re-sharding can
      // change which candidates get pruned but never the answer.
      const double bound =
          plan.is_range ? request.threshold
                        : std::min(plan.shared.Get(), out.KthBound(plan.k));
      double distance;
      if (plan.cascade) {
        const std::span<const double> candidate = shard.data[i].view();
        WARP_COUNT(obs::Counter::kLbKimCalls);
        if (query.size() == 1) {
          distance = PointCost(query[0], shard.head[i], cost);
        } else {
          const double kim =
              batched_kim
                  ? kim_cache[i - begin]
                  : PointCost(query[0], shard.head[i], cost) +
                        PointCost(query[query.size() - 1], shard.tail[i],
                                  cost);
          if (kim > bound) {
            WARP_COUNT(obs::Counter::kLbKimKills);
            continue;
          }
          if (candidate_envelopes != nullptr &&
              LbKeogh((*candidate_envelopes)[i], query, cost, bound) >
                  bound) {
            WARP_COUNT(obs::Counter::kLbKeoghKills);
            continue;
          }
          if (LbKeogh(plan.query_envelope, candidate, cost, bound) > bound) {
            WARP_COUNT(obs::Counter::kLbKeoghKills);
            continue;
          }
          distance = CdtwDistanceAbandoning(query, candidate, plan.band,
                                            bound, cost, &workspace);
          if (distance == kInf) {
            WARP_COUNT(obs::Counter::kCascadeEarlyAbandons);
            continue;
          }
          WARP_COUNT(obs::Counter::kCascadeFullDtw);
        }
      } else {
        distance = plan.measure(query, shard.data[i].view());
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
        if (plan.k == 1) plan.shared.Lower(distance);
      }
    }
  }

  // Chunk-order gather merge on the calling thread: deterministic at any
  // thread count and identical between the candidate-parallel and
  // flattened batch paths. Shard-layout-independent too: top-k merging
  // selects the k smallest under the strict (distance, index) order (a
  // set property), and range hits are re-sorted into global index order
  // (a no-op at 1 shard, where chunk concatenation is already
  // index-ordered) — both in MergeNeighbors, the cluster router's merge
  // too.
  ServeResponse MergeScan(ScanPlan& plan) {
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
    response.trace.cache_us = plan.cache_us;
    response.trace.merge_us = merge_watch.ElapsedMicros();
    return response;
  }

  // One schedulable chunk of one plan: a contiguous local candidate run
  // inside one shard slice. Both execution paths (single request, batch)
  // flatten their plans into a list of these and fan the list out.
  struct ScanUnit {
    ScanPlan* plan;
    size_t slice;  // Index into plan->slices.
    size_t begin;
    size_t end;  // Local candidate range within the shard.
  };

  static void AppendUnits(ScanPlan* plan, std::vector<ScanUnit>* units) {
    for (size_t s = 0; s < plan->slices.size(); ++s) {
      const size_t count = plan->slices[s].shard->size();
      for (size_t begin = 0; begin < count; begin += kScanGrain) {
        units->push_back(
            {plan, s, begin, std::min(begin + kScanGrain, count)});
      }
    }
  }

  void RunUnits(const std::vector<ScanUnit>& units, const ExecContext& ctx) {
    ParallelFor(ctx.pool, 0, units.size(), 1,
                [&](size_t begin, size_t end, size_t worker) {
                  for (size_t u = begin; u < end; ++u) {
                    const ScanUnit& unit = units[u];
                    ScanRange(*unit.plan, unit.plan->slices[unit.slice],
                              unit.begin, unit.end,
                              WorkspaceFor(ctx, worker));
                  }
                });
  }

  ServeResponse ExecuteScan(const ServeRequest& request,
                            const StoredDataset& stored,
                            const ExecContext& ctx) {
    const std::unique_ptr<ScanPlan> plan = PrepareScan(request, stored);
    std::vector<ScanUnit> units;
    AppendUnits(plan.get(), &units);
    RunUnits(units, ctx);
    return MergeScan(*plan);
  }

  // Final per-query accounting, common to every execution path: stamps
  // the trace-echo flag, records the stage/latency/work histograms, and
  // feeds computed queries to the slow-query log. Latency here is
  // engine-side (lookup + scan + merge); parse/queue/serialize stages are
  // recorded by their own layers.
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

  ServeResponse RunOne(const ServeRequest& request,
                       const std::shared_ptr<const StoredDataset>& snapshot,
                       const ExecContext& ctx) {
    const std::string key = CacheKey(request, snapshot->epoch);
    const Stopwatch lookup;
    ServeResponse response;
    if (cache != nullptr && cache->Lookup(key, &response)) {
      response.id = request.id;
      response.trace.from_cache = true;
      response.trace.cache_us = lookup.ElapsedMicros();
      FinishQuery(request, &response);
      return response;
    }
    const double cache_us = cache != nullptr ? lookup.ElapsedMicros() : 0.0;
    response = Execute(request, *snapshot, ctx);
    response.trace.cache_us = cache_us;
    if (cache != nullptr) cache->Insert(key, response);
    FinishQuery(request, &response);
    return response;
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
  WARP_COUNT(obs::Counter::kServeRequests);
  std::shared_ptr<const StoredDataset> snapshot;
  ServeResponse failure;
  if (!impl_->Resolve(request, &snapshot, &failure)) return failure;
  Impl::ExecContext ctx;
  ctx.pool = impl_->pool.get();
  return impl_->RunOne(request, snapshot, ctx);
}

void QueryEngine::RunBatch(const std::vector<ServeRequest>& requests,
                           std::vector<ServeResponse>* responses) {
  responses->assign(requests.size(), ServeResponse{});

  // Group request indexes by dataset, first-appearance order, so each
  // group resolves its snapshot once and scans it back to back (shared
  // index, warm cache lines across the group's queries).
  std::vector<std::pair<std::string, std::vector<size_t>>> groups;
  for (size_t i = 0; i < requests.size(); ++i) {
    WARP_COUNT(obs::Counter::kServeRequests);
    bool found = false;
    for (auto& [name, members] : groups) {
      if (name == requests[i].dataset) {
        members.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) groups.push_back({requests[i].dataset, {i}});
  }

  for (const auto& [name, members] : groups) {
    WARP_COUNT(obs::Counter::kServeBatches);
    WARP_COUNT_ADD(obs::Counter::kServeBatchedQueries, members.size());
    // Validate each member against the snapshot it resolved — a
    // concurrent re-registration mid-group must not let a request
    // validated against one epoch execute against another.
    std::vector<std::pair<size_t, std::shared_ptr<const StoredDataset>>>
        runnable;
    for (const size_t i : members) {
      std::shared_ptr<const StoredDataset> snap;
      ServeResponse failure;
      if (!impl_->Resolve(requests[i], &snap, &failure)) {
        (*responses)[i] = std::move(failure);
        continue;
      }
      runnable.emplace_back(i, std::move(snap));
    }
    if (runnable.empty()) continue;

    if (impl_->pool == nullptr) {
      Impl::ExecContext ctx;  // Serial engine: scan inline, slot 0.
      for (const auto& [r, snap] : runnable) {
        (*responses)[r] = impl_->RunOne(requests[r], snap, ctx);
      }
      continue;
    }

    // Pooled path: answer cache hits and single-series ops inline, build
    // a ScanPlan per uncached scan, then flatten every plan's chunks into
    // ONE work list — the pool stays saturated regardless of how the
    // batch divides into requests (a batch of 2 big scans and 30 tiny
    // ones fans out as well as 32 equal ones). Chunk boundaries, merges,
    // and pruning rules are exactly those of the single-request path, so
    // every response is bitwise-identical to Run() on its own.
    std::vector<std::unique_ptr<Impl::ScanPlan>> plans;
    for (const auto& [r, snap] : runnable) {
      const ServeRequest& request = requests[r];
      const std::string key = CacheKey(request, snap->epoch);
      const Stopwatch lookup;
      ServeResponse hit;
      if (impl_->cache != nullptr && impl_->cache->Lookup(key, &hit)) {
        hit.id = request.id;
        hit.trace.from_cache = true;
        hit.trace.cache_us = lookup.ElapsedMicros();
        impl_->FinishQuery(request, &hit);
        (*responses)[r] = std::move(hit);
        continue;
      }
      const double cache_us =
          impl_->cache != nullptr ? lookup.ElapsedMicros() : 0.0;
      if (IsScanOp(request.op)) {
        std::unique_ptr<Impl::ScanPlan> plan =
            impl_->PrepareScan(request, *snap);
        plan->slot = r;
        plan->cache_key = key;
        plan->cache_us = cache_us;
        plans.push_back(std::move(plan));
      } else {
        Impl::ExecContext ctx;
        ctx.pool = impl_->pool.get();
        ServeResponse response = impl_->Execute(request, *snap, ctx);
        response.trace.cache_us = cache_us;
        if (impl_->cache != nullptr) {
          impl_->cache->Insert(key, response);
        }
        impl_->FinishQuery(request, &response);
        (*responses)[r] = std::move(response);
      }
    }
    if (plans.empty()) continue;

    std::vector<Impl::ScanUnit> units;
    for (const std::unique_ptr<Impl::ScanPlan>& plan : plans) {
      Impl::AppendUnits(plan.get(), &units);
    }
    Impl::ExecContext scan_ctx;
    scan_ctx.pool = impl_->pool.get();
    impl_->RunUnits(units, scan_ctx);
    for (const std::unique_ptr<Impl::ScanPlan>& plan : plans) {
      ServeResponse response = impl_->MergeScan(*plan);
      if (impl_->cache != nullptr) {
        impl_->cache->Insert(plan->cache_key, response);
      }
      impl_->FinishQuery(*plan->request, &response);
      (*responses)[plan->slot] = std::move(response);
    }
  }
}

}  // namespace serve
}  // namespace warp
