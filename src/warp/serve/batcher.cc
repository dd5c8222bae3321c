#include "warp/serve/batcher.h"

#include <utility>

#include "warp/common/metrics.h"
#include "warp/obs/histogram.h"

namespace warp {
namespace serve {

Batcher::Batcher(QueryEngine* engine, size_t max_queue_depth)
    : engine_(engine),
      max_queue_depth_(max_queue_depth),
      dispatcher_([this] { DispatchLoop(); }) {}

Batcher::~Batcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  pending_cv_.notify_all();
  dispatcher_.join();
}

void Batcher::Execute(const std::vector<ServeRequest>& requests,
                      std::vector<ServeResponse>* responses) {
  if (requests.empty()) {
    responses->clear();
    return;
  }
  Submission submission;
  submission.requests = &requests;
  submission.responses = responses;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_queue_depth_ > 0 && pending_.size() >= max_queue_depth_) {
      // Admission gate: fast-fail instead of queueing behind a batch
      // that may be stuck on a dead shard or a pathological scan. The
      // client sees the failure in microseconds and can back off.
      ++shed_;
      WARP_COUNT_ADD(obs::Counter::kServeShed, requests.size());
      responses->clear();
      responses->reserve(requests.size());
      for (const ServeRequest& request : requests) {
        ServeResponse shed;
        shed.id = request.id;
        shed.op = request.op;
        shed.ok = false;
        shed.error = "overloaded";
        responses->push_back(std::move(shed));
      }
      return;
    }
    pending_.push_back(&submission);
    submission.queued.Restart();
    // One gauge step per submission (not per request): the admission
    // question the ROADMAP cares about is "how many clients are waiting",
    // decremented when the dispatcher adopts the submission into a batch.
    WARP_GAUGE_ADD(obs::Gauge::kServeQueueDepth, 1);
  }
  pending_cv_.notify_one();
  std::unique_lock<std::mutex> lock(mutex_);
  submission.cv.wait(lock, [&] { return submission.done; });
}

uint64_t Batcher::batches_dispatched() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batches_;
}

size_t Batcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

uint64_t Batcher::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

void Batcher::DispatchLoop() {
  while (true) {
    std::vector<Submission*> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      pending_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stop_ and fully drained.
      batch.assign(pending_.begin(), pending_.end());
      pending_.clear();
      ++batches_;
    }

    // Flatten every pending submission into one engine batch. Queue wait
    // is per submission (admission -> adoption); every request in a
    // submission shares its wait.
    std::vector<ServeRequest> requests;
    std::vector<double> queue_waits(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Submission* s = batch[i];
      queue_waits[i] = s->queued.ElapsedMicros();
      WARP_GAUGE_ADD(obs::Gauge::kServeQueueDepth, -1);
      requests.insert(requests.end(), s->requests->begin(),
                      s->requests->end());
    }
    WARP_COUNT(obs::Counter::kServeBatches);
    WARP_COUNT_ADD(obs::Counter::kServeBatchedQueries, requests.size());
    WARP_HISTOGRAM_RECORD(obs::Histogram::kServeBatchOccupancy,
                          requests.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      for (size_t j = 0; j < batch[i]->requests->size(); ++j) {
        WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeStageQueueWait,
                                 queue_waits[i]);
      }
    }

    WARP_GAUGE_ADD(obs::Gauge::kServeInflightBatch, requests.size());
    std::vector<ServeResponse> responses;
    engine_->RunBatch(requests, &responses);
    WARP_GAUGE_ADD(obs::Gauge::kServeInflightBatch,
                   -static_cast<int64_t>(requests.size()));

    {
      std::lock_guard<std::mutex> lock(mutex_);
      size_t offset = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        Submission* s = batch[i];
        const size_t count = s->requests->size();
        for (size_t j = 0; j < count; ++j) {
          responses[offset + j].trace.queue_us = queue_waits[i];
        }
        s->responses->assign(
            std::make_move_iterator(responses.begin() +
                                    static_cast<ptrdiff_t>(offset)),
            std::make_move_iterator(responses.begin() +
                                    static_cast<ptrdiff_t>(offset + count)));
        offset += count;
        s->done = true;
        // Notify while holding the lock: the submitter frees the
        // Submission (stack storage) the moment it observes done, which
        // it cannot do before we release the mutex.
        s->cv.notify_one();
      }
    }
  }
}

}  // namespace serve
}  // namespace warp
