#include "warp/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <memory>
#include <utility>

#include "warp/common/flags.h"
#include "warp/common/stopwatch.h"
#include "warp/common/metrics.h"

namespace warp {

size_t DefaultThreadCount() {
  int value = 0;
  if (const char* env = std::getenv("WARP_THREADS");
      env != nullptr && ReadNumber(env, 1, INT_MAX, &value)) {
    return static_cast<size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t ResolveThreadCount(size_t requested) {
  return requested == 0 ? DefaultThreadCount() : requested;
}

ThreadPool::ThreadPool(size_t threads) {
  const size_t count = std::max<size_t>(1, ResolveThreadCount(threads));
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  WARP_COUNT(obs::Counter::kPoolTasks);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr exception = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(exception);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Idle time between tasks, attributed per worker thread. Waits that
      // end in shutdown are not counted — only waits a task resolves, so
      // the total reflects queue starvation during real work.
      Stopwatch wait_watch;
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      WARP_COUNT_ADD(obs::Counter::kPoolQueueWaitNanos,
                     wait_watch.ElapsedSeconds() * 1e9);
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const ChunkFn& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = ChunkCount(begin, end, grain);
  const size_t workers = pool == nullptr ? 1 : pool->size();
  WARP_COUNT(obs::Counter::kPoolParallelFors);
  WARP_COUNT_ADD(obs::Counter::kPoolChunks, num_chunks);

  auto run_chunk = [&](size_t chunk, size_t worker) {
    const size_t chunk_begin = begin + chunk * grain;
    const size_t chunk_end = std::min(end, chunk_begin + grain);
    fn(chunk_begin, chunk_end, worker);
  };

  if (workers <= 1 || num_chunks <= 1) {
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk, 0);
    return;
  }

  // Dynamic chunk claiming: fixed chunk boundaries (determinism) with
  // work stealing by counter (load balance). Once any chunk throws, the
  // remaining chunks are abandoned; the pool rethrows from Wait().
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto failed = std::make_shared<std::atomic<bool>>(false);
  const size_t tasks = std::min(workers, num_chunks);
  for (size_t worker = 0; worker < tasks; ++worker) {
    pool->Submit([next, failed, num_chunks, worker, &run_chunk] {
      for (;;) {
        const size_t chunk = next->fetch_add(1, std::memory_order_relaxed);
        if (chunk >= num_chunks || failed->load(std::memory_order_relaxed)) {
          return;
        }
        try {
          run_chunk(chunk, worker);
        } catch (...) {
          failed->store(true, std::memory_order_relaxed);
          throw;  // Captured by the pool, rethrown from Wait().
        }
      }
    });
  }
  pool->Wait();
}

}  // namespace warp
