// QueryEngine golden tests: every operation must equal a direct call into
// the library — bitwise, at 1, 2, and 8 threads, knn also at 2 and 7
// shards — plus deadline, batch, and validation semantics, and the
// cascade work a knn scan does against the accelerated classifier's.

#include "warp/serve/query_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/common/metrics.h"
#include "warp/core/measure.h"
#include "warp/gen/random_walk.h"
#include "warp/mining/nn_classifier.h"
#include "warp/mining/similarity_search.h"
#include "warp/serve/dataset_store.h"
#include "warp/ts/znorm.h"

namespace warp {
namespace serve {
namespace {

constexpr size_t kSeries = 50;
constexpr size_t kLength = 64;

// Brute-force reference: distances from the z-normalized query to every
// stored (already z-normalized) series through the same measure registry
// closure the engine resolves.
std::vector<double> ReferenceDistances(const StoredDataset& stored,
                                       const ServeRequest& request) {
  const std::vector<double> query =
      request.znormalize ? ZNormalized(request.query) : request.query;
  const SeriesMeasure measure = MakeMeasure(request.measure, request.params);
  std::vector<double> distances(stored.size());
  for (size_t i = 0; i < stored.size(); ++i) {
    distances[i] = measure(query, stored.SeriesAt(i).view());
  }
  return distances;
}

// Everything a reply answers, doubles as hexfloats so a mismatch shows
// the bits; the id and the stage trace are left out.
std::string Digest(const ServeResponse& response) {
  std::string out = response.ok ? "ok" : "error: " + response.error;
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), " d=%a p=%zu scanned=%llu/%llu",
                response.distance, response.position,
                static_cast<unsigned long long>(response.scanned),
                static_cast<unsigned long long>(response.total));
  out += buffer;
  for (const Neighbor& n : response.neighbors) {
    std::snprintf(buffer, sizeof(buffer), " %zu:%d:%a", n.index, n.label,
                  n.distance);
    out += buffer;
  }
  return out;
}

// Indices sorted by the engine's total order (distance, index).
std::vector<size_t> RankedIndices(const std::vector<double>& distances) {
  std::vector<size_t> order(distances.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (distances[a] != distances[b]) return distances[a] < distances[b];
    return a < b;
  });
  return order;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  // The "train" dataset, registered into a store of any shard count.
  static void RegisterTrain(DatasetStore* store) {
    store->Register("train", gen::RandomWalkDataset(kSeries, kLength, 21),
                    {6});  // 6 == lround(0.1 * 64): the default window.
  }

  void SetUp() override {
    RegisterTrain(&store_);
    query_ = gen::RandomWalkDataset(1, kLength, 77)[0].values();
  }

  ServeRequest Request(QueryOp op) {
    ServeRequest request;
    request.op = op;
    request.dataset = "train";
    request.query = query_;
    return request;
  }

  // Runs `request` at several thread counts and checks every response
  // against `check`; also cross-checks serial Run vs RunBatch.
  void RunAllWays(const ServeRequest& request,
                  const std::function<void(const ServeResponse&)>& check) {
    RunAllWays(store_, request, check);
  }

  static void RunAllWays(
      const DatasetStore& store, const ServeRequest& request,
      const std::function<void(const ServeResponse&)>& check) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      QueryEngine engine(&store, nullptr, threads);
      check(engine.Run(request));
      std::vector<ServeResponse> responses;
      engine.RunBatch({request, request}, &responses);
      ASSERT_EQ(responses.size(), 2u);
      check(responses[0]);
      check(responses[1]);
    }
  }

  DatasetStore store_;
  std::vector<double> query_;
};

TEST_F(QueryEngineTest, OneNnMatchesBruteForceBitwise) {
  const ServeRequest request = Request(QueryOp::k1Nn);
  const auto snapshot = store_.Get("train");
  const std::vector<double> reference =
      ReferenceDistances(*snapshot, request);
  const size_t best = RankedIndices(reference)[0];

  RunAllWays(request, [&](const ServeResponse& response) {
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_FALSE(response.partial);
    EXPECT_EQ(response.scanned, kSeries);
    EXPECT_EQ(response.total, kSeries);
    ASSERT_EQ(response.neighbors.size(), 1u);
    EXPECT_EQ(response.neighbors[0].index, best);
    EXPECT_EQ(response.neighbors[0].distance, reference[best]);
    EXPECT_EQ(response.neighbors[0].label, snapshot->SeriesAt(best).label());
  });
}

// k below, at and past the 8-candidate scan chunk, up to every series and
// past it (57 > 50: the reply holds all 50), at 1, 2 and 7 shards: the
// plan-wide k-th best prunes across chunks, shards and threads without
// moving a bit of the answer.
TEST_F(QueryEngineTest, KnnMatchesBruteForceOrderAndBits) {
  const auto snapshot = store_.Get("train");
  const std::vector<double> reference =
      ReferenceDistances(*snapshot, Request(QueryOp::kKnn));
  const std::vector<size_t> ranked = RankedIndices(reference);
  DatasetStore two_shards(2);
  DatasetStore seven_shards(7);
  RegisterTrain(&two_shards);
  RegisterTrain(&seven_shards);

  for (const size_t k : {size_t{5}, size_t{8}, size_t{10}, size_t{16},
                         size_t{50}, size_t{57}}) {
    ServeRequest request = Request(QueryOp::kKnn);
    request.k = k;
    const size_t expected = std::min(k, kSeries);
    for (const DatasetStore* store : {&store_, &two_shards, &seven_shards}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " shards=" + std::to_string(store->shard_count()));
      RunAllWays(*store, request, [&](const ServeResponse& response) {
        ASSERT_TRUE(response.ok) << response.error;
        ASSERT_EQ(response.neighbors.size(), expected);
        for (size_t i = 0; i < expected; ++i) {
          EXPECT_EQ(response.neighbors[i].index, ranked[i]) << i;
          EXPECT_EQ(response.neighbors[i].label,
                    snapshot->SeriesAt(ranked[i]).label())
              << i;
          EXPECT_EQ(response.neighbors[i].distance, reference[ranked[i]])
              << i;
        }
      });
    }
  }
}

// knn prunes against the plan-wide k-th best so far, the bound the
// accelerated classifier's ClassifyKnn keeps. At one thread and one shard
// the engine meets the candidates in the classifier's order under the
// same bound, so every cascade rung and the DP cells do the same work.
TEST_F(QueryEngineTest, KnnDoesTheClassifiersCascadeWork) {
  const auto snapshot = store_.Get("train");
  Dataset train;
  for (size_t i = 0; i < snapshot->size(); ++i) {
    train.Add(snapshot->SeriesAt(i));
  }
  const AcceleratedNnClassifier classifier(train, 6);
  const std::vector<double> query = ZNormalized(query_);
  QueryEngine engine(&store_, nullptr, 1);

  for (const size_t k : {size_t{1}, size_t{5}, size_t{8}, size_t{10},
                         size_t{16}, size_t{50}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ServeRequest request = Request(QueryOp::kKnn);
    request.k = k;
    obs::MetricsSnapshot before = obs::SnapshotCounters();
    const ServeResponse response = engine.Run(request);
    const obs::MetricsSnapshot engine_work = obs::CountersSince(before);
    before = obs::SnapshotCounters();
    const Prediction prediction = classifier.ClassifyKnn(query, k);
    const obs::MetricsSnapshot classifier_work = obs::CountersSince(before);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.neighbors[0].index, prediction.nn_index);
    for (const obs::Counter counter :
         {obs::Counter::kDtwCells, obs::Counter::kLbKimKills,
          obs::Counter::kLbKeoghKills, obs::Counter::kCascadeEarlyAbandons,
          obs::Counter::kCascadeFullDtw}) {
      EXPECT_EQ(engine_work[counter], classifier_work[counter])
          << obs::CounterName(counter);
    }
  }
}

TEST_F(QueryEngineTest, RangeMatchesBruteForceFilter) {
  ServeRequest request = Request(QueryOp::kRange);
  const auto snapshot = store_.Get("train");
  const std::vector<double> reference =
      ReferenceDistances(*snapshot, request);
  // A threshold between the 10th and 11th distances: exactly 10 hits.
  std::vector<double> sorted = reference;
  std::sort(sorted.begin(), sorted.end());
  request.threshold = (sorted[9] + sorted[10]) / 2.0;

  RunAllWays(request, [&](const ServeResponse& response) {
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_EQ(response.neighbors.size(), 10u);
    size_t previous = 0;
    for (const Neighbor& n : response.neighbors) {
      EXPECT_LE(n.distance, request.threshold);
      EXPECT_EQ(n.distance, reference[n.index]);
      if (&n != &response.neighbors.front()) {
        EXPECT_GT(n.index, previous);
      }
      previous = n.index;
    }
  });
}

// A non-cdtw measure exercises the brute-force registry path instead of
// the cascade; answers must still match a direct library call.
TEST_F(QueryEngineTest, NonCascadeMeasureMatchesRegistryClosure) {
  ServeRequest request = Request(QueryOp::k1Nn);
  request.measure = "msm";
  const auto snapshot = store_.Get("train");
  const std::vector<double> reference =
      ReferenceDistances(*snapshot, request);
  const size_t best = RankedIndices(reference)[0];

  RunAllWays(request, [&](const ServeResponse& response) {
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_EQ(response.neighbors.size(), 1u);
    EXPECT_EQ(response.neighbors[0].index, best);
    EXPECT_EQ(response.neighbors[0].distance, reference[best]);
  });
}

TEST_F(QueryEngineTest, DistMatchesDirectMeasureCall) {
  ServeRequest request = Request(QueryOp::kDist);
  request.index = 13;
  const auto snapshot = store_.Get("train");
  const double expected =
      MakeMeasure(request.measure, request.params)(
          ZNormalized(request.query), snapshot->SeriesAt(13).view());

  RunAllWays(request, [&](const ServeResponse& response) {
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.distance, expected);
  });
}

TEST_F(QueryEngineTest, SubsequenceMatchesFindBestMatch) {
  // A short query against a long stored series.
  store_.Register("long", gen::RandomWalkDataset(2, 256, 5), {});
  ServeRequest request = Request(QueryOp::kSubsequence);
  request.dataset = "long";
  request.index = 1;
  request.query = gen::RandomWalkDataset(1, 32, 9)[0].values();
  request.trace = true;

  const auto snapshot = store_.Get("long");
  const size_t band = static_cast<size_t>(
      std::lround(request.params.window_fraction * 32.0));
  const SubsequenceMatch expected =
      FindBestMatch(snapshot->SeriesAt(1).view(), ZNormalized(request.query),
                    band, request.params.cost, nullptr);

  RunAllWays(request, [&](const ServeResponse& response) {
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.position, expected.position);
    EXPECT_EQ(response.distance, expected.distance);
    EXPECT_EQ(response.total, 256u - 32u + 1u);
    // The search's banded cDTW cells are the reply's work.
    EXPECT_GT(response.trace.cells, 0u);
  });
}

TEST_F(QueryEngineTest, ZnormFalseMatchesRawQuery) {
  ServeRequest request = Request(QueryOp::k1Nn);
  request.znormalize = false;
  const auto snapshot = store_.Get("train");
  const std::vector<double> reference =
      ReferenceDistances(*snapshot, request);
  const size_t best = RankedIndices(reference)[0];

  RunAllWays(request, [&](const ServeResponse& response) {
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.neighbors[0].index, best);
    EXPECT_EQ(response.neighbors[0].distance, reference[best]);
  });
}

TEST_F(QueryEngineTest, MixedBatchEqualsSerialRuns) {
  std::vector<ServeRequest> batch;
  batch.push_back(Request(QueryOp::k1Nn));
  ServeRequest knn = Request(QueryOp::kKnn);
  knn.k = 3;
  batch.push_back(knn);
  ServeRequest dist = Request(QueryOp::kDist);
  dist.index = 7;
  batch.push_back(dist);
  ServeRequest bad = Request(QueryOp::k1Nn);
  bad.dataset = "missing";
  batch.push_back(bad);
  batch.push_back(Request(QueryOp::k1Nn));  // Duplicate of [0].
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = static_cast<int64_t>(100 + i);
  }

  QueryEngine serial(&store_, nullptr, 1);
  std::vector<ServeResponse> expected;
  for (const ServeRequest& request : batch) {
    expected.push_back(serial.Run(request));
  }

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryEngine engine(&store_, nullptr, threads);
    std::vector<ServeResponse> responses;
    engine.RunBatch(batch, &responses);
    ASSERT_EQ(responses.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(responses[i].id, batch[i].id);
      EXPECT_EQ(responses[i].ok, expected[i].ok);
      EXPECT_EQ(responses[i].error, expected[i].error);
      ASSERT_EQ(responses[i].neighbors.size(), expected[i].neighbors.size());
      for (size_t n = 0; n < expected[i].neighbors.size(); ++n) {
        EXPECT_EQ(responses[i].neighbors[n].index,
                  expected[i].neighbors[n].index);
        EXPECT_EQ(responses[i].neighbors[n].distance,
                  expected[i].neighbors[n].distance);
      }
      EXPECT_EQ(responses[i].distance, expected[i].distance);
    }
  }
}

// A batch reads the cache as it stood when the batch began: the in-batch
// duplicates of [1nn A, knn B, 1nn A, dist D, dist D] are computed at
// every thread count, and repeating the batch answers all five from the
// cache. Cached or computed, every reply equals the uncached engine's.
TEST_F(QueryEngineTest, BatchReadsTheCacheAsOfItsStart) {
  ServeRequest knn = Request(QueryOp::kKnn);
  knn.k = 3;
  knn.query = gen::RandomWalkDataset(1, kLength, 78)[0].values();
  ServeRequest dist = Request(QueryOp::kDist);
  dist.index = 7;
  const std::vector<ServeRequest> batch = {Request(QueryOp::k1Nn), knn,
                                           Request(QueryOp::k1Nn), dist,
                                           dist};

  QueryEngine uncached(&store_, nullptr, 1);
  std::vector<ServeResponse> expected;
  uncached.RunBatch(batch, &expected);

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ResultCache cache(16);
    QueryEngine engine(&store_, &cache, threads);
    for (const bool repeat : {false, true}) {
      SCOPED_TRACE(repeat ? "repeated batch" : "first batch");
      std::vector<ServeResponse> responses;
      engine.RunBatch(batch, &responses);
      ASSERT_EQ(responses.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        ASSERT_TRUE(responses[i].ok) << responses[i].error;
        EXPECT_EQ(Digest(responses[i]), Digest(expected[i]));
        EXPECT_EQ(responses[i].trace.from_cache, repeat);
      }
    }
  }
}

// A request with an expired budget degrades to a flagged partial answer
// instead of blocking — and that answer is exact over what was scanned.
TEST_F(QueryEngineTest, ExpiredDeadlineYieldsFlaggedPartialResult) {
  ServeRequest request = Request(QueryOp::k1Nn);
  request.deadline_ms = 1e-7;  // Expired before the first candidate.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryEngine engine(&store_, nullptr, threads);
    const ServeResponse response = engine.Run(request);
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_TRUE(response.partial);
    EXPECT_LT(response.scanned, response.total);
    EXPECT_EQ(response.total, kSeries);
  }
}

TEST_F(QueryEngineTest, PartialResultsAreNeverCached) {
  ResultCache cache(8);
  QueryEngine engine(&store_, &cache, 1);
  ServeRequest request = Request(QueryOp::k1Nn);
  request.deadline_ms = 1e-7;
  const ServeResponse partial = engine.Run(request);
  ASSERT_TRUE(partial.partial);
  EXPECT_EQ(cache.size(), 0u);

  // The same request with a generous budget computes the full answer —
  // a stale partial must not shadow it.
  request.deadline_ms = 60000.0;
  const ServeResponse full = engine.Run(request);
  ASSERT_TRUE(full.ok);
  EXPECT_FALSE(full.partial);
  EXPECT_EQ(full.scanned, kSeries);
}

TEST_F(QueryEngineTest, ValidationErrorsAreDiagnosable) {
  QueryEngine engine(&store_, nullptr, 1);

  ServeRequest request = Request(QueryOp::k1Nn);
  request.dataset = "missing";
  ServeResponse response = engine.Run(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown dataset"), std::string::npos);

  request = Request(QueryOp::k1Nn);
  request.measure = "frobnicate";
  response = engine.Run(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("unknown measure"), std::string::npos);

  request = Request(QueryOp::k1Nn);
  request.query.clear();
  EXPECT_FALSE(engine.Run(request).ok);

  request = Request(QueryOp::k1Nn);
  request.query[3] = std::numeric_limits<double>::quiet_NaN();
  response = engine.Run(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("non-finite"), std::string::npos);

  request = Request(QueryOp::kDist);
  request.index = kSeries;
  response = engine.Run(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("out of range"), std::string::npos);

  request = Request(QueryOp::kKnn);
  request.k = 0;
  EXPECT_FALSE(engine.Run(request).ok);

  request = Request(QueryOp::kRange);
  request.threshold = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(engine.Run(request).ok);

  request = Request(QueryOp::kSubsequence);
  request.index = 0;
  request.query.assign(kLength + 1, 0.5);  // Longer than the target.
  EXPECT_FALSE(engine.Run(request).ok);
}

// ed and wdtw compare position by position, and adtw suggests its omega
// from the Euclidean per-step cost: a query of another length is refused
// by name, on every op and on a mixed-length dataset, instead of reaching
// the closure's WARP_CHECK; so are a ddtw query under 3 points and the
// negative knobs the kernels check. The engine answers the next query.
TEST_F(QueryEngineTest, MeasureInputRulesRefuseByName) {
  Dataset mixed = gen::RandomWalkDataset(3, kLength, 5);
  mixed.Add(TimeSeries(std::vector<double>(kLength - 4, 1.0), 0));
  store_.Register("mixed", std::move(mixed), {});
  QueryEngine engine(&store_, nullptr, 2);
  for (const std::string measure : {"ed", "wdtw", "adtw"}) {
    for (const QueryOp op :
         {QueryOp::k1Nn, QueryOp::kKnn, QueryOp::kRange, QueryOp::kDist}) {
      SCOPED_TRACE(measure + " " + QueryOpName(op));
      ServeRequest request = Request(op);
      request.measure = measure;
      request.k = 3;
      request.threshold = 10.0;
      request.query.resize(kLength - 3);
      const std::string rule = "measure " + measure + " requires equal lengths";
      EXPECT_EQ(engine.Run(request).error, rule + ", got 61 and 64");

      request.query = query_;
      request.dataset = "mixed";
      request.index = 3;  // The short series, for dist.
      EXPECT_EQ(engine.Run(request).error, rule + ", got 64 and 60");
    }
  }

  // ddtw's derivative needs 3 points.
  ServeRequest request = Request(QueryOp::k1Nn);
  request.measure = "ddtw";
  request.query.resize(2);
  EXPECT_EQ(engine.Run(request).error,
            "measure ddtw requires at least 3 points, got 2 and 64");

  // Knobs whose kernels check their sign.
  request = Request(QueryOp::k1Nn);
  request.measure = "lcss";
  request.params.lcss_epsilon = -1.0;
  EXPECT_EQ(engine.Run(request).error, "measure lcss requires epsilon >= 0");
  request.measure = "msm";
  request.params.msm_cost = -1.0;
  EXPECT_EQ(engine.Run(request).error, "measure msm requires c >= 0");
  request.measure = "adtw";
  request.params.adtw_ratio = -1.0;
  EXPECT_EQ(engine.Run(request).error, "measure adtw requires ratio >= 0");

  // A fixed omega lifts adtw's rules; cdtw never had one.
  request = Request(QueryOp::k1Nn);
  request.query.resize(kLength - 3);
  request.measure = "adtw";
  request.params.adtw_omega = 0.5;
  EXPECT_TRUE(engine.Run(request).ok);
  request.measure = "cdtw";
  EXPECT_TRUE(engine.Run(request).ok);

  request = Request(QueryOp::k1Nn);
  request.measure = "ed";
  const ServeResponse response = engine.Run(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.neighbors.size(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace warp
