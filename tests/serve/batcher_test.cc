// Batcher tests: group-commit coalescing must change scheduling only —
// every answer equals a direct engine run, under any submission pattern.

#include "warp/serve/batcher.h"

#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "warp/gen/random_walk.h"
#include "warp/serve/dataset_store.h"
#include "warp/serve/query_engine.h"

namespace warp {
namespace serve {
namespace {

class BatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.Register("d", gen::RandomWalkDataset(30, 48, 3), {5});
    const Dataset queries = gen::RandomWalkDataset(24, 48, 31);
    for (size_t i = 0; i < queries.size(); ++i) {
      ServeRequest request;
      request.id = static_cast<int64_t>(i);
      request.op = QueryOp::k1Nn;
      request.dataset = "d";
      request.query = queries[i].values();
      requests_.push_back(std::move(request));
    }
  }

  DatasetStore store_;
  std::vector<ServeRequest> requests_;
};

TEST_F(BatcherTest, EmptySubmissionReturnsEmpty) {
  QueryEngine engine(&store_, nullptr, 1);
  Batcher batcher(&engine);
  std::vector<ServeResponse> responses{ServeResponse{}};
  batcher.Execute({}, &responses);
  EXPECT_TRUE(responses.empty());
}

TEST_F(BatcherTest, SingleSubmitterMatchesDirectRun) {
  QueryEngine engine(&store_, nullptr, 2);
  QueryEngine reference(&store_, nullptr, 1);
  Batcher batcher(&engine);
  std::vector<ServeResponse> responses;
  batcher.Execute(requests_, &responses);
  ASSERT_EQ(responses.size(), requests_.size());
  for (size_t i = 0; i < requests_.size(); ++i) {
    const ServeResponse expected = reference.Run(requests_[i]);
    EXPECT_EQ(responses[i].id, requests_[i].id);
    ASSERT_EQ(responses[i].neighbors.size(), 1u);
    EXPECT_EQ(responses[i].neighbors[0].index, expected.neighbors[0].index);
    EXPECT_EQ(responses[i].neighbors[0].distance,
              expected.neighbors[0].distance);
  }
}

// Many threads submitting concurrently: answers are per-submission
// correct regardless of how the dispatcher groups them, and at least one
// multi-submission batch actually forms under contention.
TEST_F(BatcherTest, ConcurrentSubmittersGetTheirOwnAnswers) {
  QueryEngine engine(&store_, nullptr, 2);
  QueryEngine reference(&store_, nullptr, 1);
  Batcher batcher(&engine);

  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 6;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        const ServeRequest& request =
            requests_[(c * kRounds + round) % requests_.size()];
        std::vector<ServeResponse> responses;
        batcher.Execute({request}, &responses);
        if (responses.size() != 1 || responses[0].id != request.id ||
            responses[0].neighbors.size() != 1) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0u);

  const uint64_t batches = batcher.batches_dispatched();
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, kClients * kRounds);

  // Spot-check correctness of one answer against a direct run.
  std::vector<ServeResponse> check;
  batcher.Execute({requests_[0]}, &check);
  const ServeResponse expected = reference.Run(requests_[0]);
  EXPECT_EQ(check[0].neighbors[0].index, expected.neighbors[0].index);
  EXPECT_EQ(check[0].neighbors[0].distance, expected.neighbors[0].distance);
}

// An engine whose first batch waits until the test opens the gate, so
// the dispatcher is busy for exactly as long as the test needs.
class GatedEngine : public QueryEngine {
 public:
  using QueryEngine::QueryEngine;

  void RunBatch(const std::vector<ServeRequest>& requests,
                std::vector<ServeResponse>* responses) override {
    if (!gated_.exchange(true)) gate_.wait();
    QueryEngine::RunBatch(requests, responses);
  }

  void Open() { gate_.count_down(); }

 private:
  std::atomic<bool> gated_{false};
  std::latch gate_{1};
};

// Admission gate: with max_queue_depth=1, a submission arriving while
// one batch is in the engine and one submission is already queued must
// fast-fail every request with ok:false error:"overloaded" — and leave
// the queued work untouched (the shed is a pure reject, not a drop of
// someone else's queries).
TEST_F(BatcherTest, OverloadedQueueFastFailsNewSubmissions) {
  GatedEngine engine(&store_, nullptr, 1);
  Batcher batcher(&engine, /*max_queue_depth=*/1);

  // The blocker's batch holds the engine until the gate opens.
  std::vector<ServeResponse> blocker_responses;
  std::thread blocker(
      [&] { batcher.Execute({requests_[4]}, &blocker_responses); });
  while (batcher.batches_dispatched() == 0) std::this_thread::yield();

  // One submission queues behind the in-flight blocker batch (depth 1 ==
  // max); it must survive the shed below and answer normally.
  std::vector<ServeResponse> queued_responses;
  std::thread queued(
      [&] { batcher.Execute({requests_[0]}, &queued_responses); });
  while (batcher.queue_depth() == 0) std::this_thread::yield();

  // Queue full: this submission is shed in its entirety, immediately.
  std::vector<ServeResponse> shed_responses;
  batcher.Execute({requests_[1], requests_[2]}, &shed_responses);
  engine.Open();
  blocker.join();
  queued.join();

  ASSERT_EQ(shed_responses.size(), 2u);
  for (size_t i = 0; i < shed_responses.size(); ++i) {
    EXPECT_EQ(shed_responses[i].id, requests_[i + 1].id);
    EXPECT_FALSE(shed_responses[i].ok);
    EXPECT_EQ(shed_responses[i].error, "overloaded");
  }
  EXPECT_EQ(batcher.shed(), 1u);  // One submission, not one per request.
  ASSERT_EQ(blocker_responses.size(), 1u);
  EXPECT_TRUE(blocker_responses[0].ok) << blocker_responses[0].error;
  ASSERT_EQ(queued_responses.size(), 1u);
  EXPECT_TRUE(queued_responses[0].ok) << queued_responses[0].error;
  EXPECT_EQ(batcher.queue_depth(), 0u);

  // The gate sheds submissions, never established work: a fresh
  // submission after drain is admitted again.
  std::vector<ServeResponse> after;
  batcher.Execute({requests_[3]}, &after);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_TRUE(after[0].ok);
  EXPECT_EQ(batcher.shed(), 1u);
}

}  // namespace
}  // namespace serve
}  // namespace warp
