// Request batching: coalesces concurrent queries into engine batches.
//
// Connection handlers (one per client) block in Execute(); a single
// dispatcher thread drains EVERY submission pending at that moment into
// one QueryEngine::RunBatch call. Queries that arrive while a batch is in
// flight pile up and form the next batch — the classic group-commit
// shape. The engine runs every request of a batch as one ParallelFor
// work list, so concurrent clients share the pool instead of queueing
// pool round-trips per request.
//
// The dispatcher is the engine's single orchestrator: Execute() never
// touches the engine from the submitting thread, so the ThreadPool's
// one-orchestrator contract holds no matter how many connections submit.

#ifndef WARP_SERVE_BATCHER_H_
#define WARP_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "warp/common/stopwatch.h"
#include "warp/serve/query_engine.h"
#include "warp/serve/request.h"

namespace warp {
namespace serve {

class Batcher {
 public:
  // `engine` must outlive the batcher. Starts the dispatcher thread.
  // `max_queue_depth` bounds the number of submissions (client
  // pipelines, not individual requests) waiting for adoption; 0 means
  // unbounded. A submission arriving at a full queue is shed
  // immediately — every response comes back ok:false,
  // error:"overloaded" — so one slow scan cannot back up the world
  // (admission bounds time-in-queue; deadlines bound time-in-engine).
  explicit Batcher(QueryEngine* engine, size_t max_queue_depth = 0);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // Answers `requests` in order; blocks until every response is ready
  // (or fast-fails them all when the queue is at max_queue_depth).
  // Thread-safe; concurrent callers coalesce into shared batches.
  void Execute(const std::vector<ServeRequest>& requests,
               std::vector<ServeResponse>* responses);

  // Batches dispatched so far (for tests and the bench).
  uint64_t batches_dispatched() const;

  // Submissions currently waiting for adoption (for tests and stats).
  size_t queue_depth() const;

  // Submissions fast-failed at the admission gate so far.
  uint64_t shed() const;

 private:
  struct Submission {
    const std::vector<ServeRequest>* requests = nullptr;
    std::vector<ServeResponse>* responses = nullptr;
    // Queue-wait clock: started at submit, read when the dispatcher
    // assembles the batch containing this submission.
    Stopwatch queued;
    // Per-submission signal (not one shared cv) so completing a batch
    // wakes exactly its submitters, not every connection in the house.
    std::condition_variable cv;
    bool done = false;
  };

  void DispatchLoop();

  QueryEngine* const engine_;
  const size_t max_queue_depth_;
  mutable std::mutex mutex_;
  std::condition_variable pending_cv_;  // Signals the dispatcher.
  std::deque<Submission*> pending_;
  uint64_t batches_ = 0;
  uint64_t shed_ = 0;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_BATCHER_H_
