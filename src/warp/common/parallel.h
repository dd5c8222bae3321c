// Deterministic multi-core execution primitives.
//
// The all-pairs sweeps, 1-NN evaluations, and clustering loops in this
// repository are embarrassingly parallel, but the paper's numbers are
// single-core, so parallelism must be (a) strictly opt-in and (b) bitwise
// reproducible. The contract everything here is built around:
//
//   * Work is split into FIXED-SIZE chunks whose boundaries depend only on
//     (begin, end, grain) — never on the thread count or on scheduling.
//   * Each chunk writes results only to its own slots (per-pair, per-query,
//     or per-chunk storage), so no output depends on interleaving.
//   * Floating-point reductions happen on the calling thread, in chunk (or
//     item) order, reproducing the serial summation order exactly.
//
// Under that contract, running with 1, 2, or 64 threads — or serially with
// no pool at all — produces bitwise-identical results; only wall-clock time
// changes. The determinism tests in tests/mining/parallel_determinism_test.cc
// hold every parallelized hot path to it.

#ifndef WARP_COMMON_PARALLEL_H_
#define WARP_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace warp {

// Worker count used when a caller asks for "auto" (threads == 0): the
// WARP_THREADS environment variable if it is a whole integer from 1 to
// INT_MAX (the range of every --threads), else
// std::thread::hardware_concurrency(), else 1.
size_t DefaultThreadCount();

// Maps a requested thread count to an effective one: 0 = auto (see
// DefaultThreadCount), anything else is taken literally.
size_t ResolveThreadCount(size_t requested);

// A fixed-size pool of worker threads draining one task queue.
//
// Tasks never see exceptions escape: the first exception thrown by any
// task is captured and rethrown from the next Wait() on the calling
// thread. One orchestrator at a time: Submit/Wait are not meant to be
// interleaved from multiple client threads (Wait waits for *all* in-flight
// tasks).
class ThreadPool {
 public:
  // threads == 0 means DefaultThreadCount(); the pool always has >= 1
  // worker.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished, then rethrows the
  // first captured task exception (if any).
  void Wait();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  size_t in_flight_ = 0;  // Queued + currently running tasks.
  bool stop_ = false;
  std::exception_ptr first_exception_;
};

// fn(chunk_begin, chunk_end, worker): one contiguous chunk of the index
// range, plus the slot index of the worker running it (for PerThread
// scratch). Chunks are claimed dynamically for load balance, but their
// boundaries are fixed by `grain` alone, so any chunk-indexed output is
// scheduling-independent.
using ChunkFn = std::function<void(size_t, size_t, size_t)>;

// Runs fn over [begin, end) in chunks of `grain` (>= 1; 0 is treated as
// 1). With a null pool, a single-worker pool, or a single chunk, the
// chunks run inline on the calling thread in ascending order with
// worker == 0 — the serial path spawns nothing. Worker slot indices lie
// in [0, max(1, pool->size())). Rethrows the first exception a chunk
// threw once all chunks have completed or been abandoned.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t grain,
                 const ChunkFn& fn);

// Number of chunks ParallelFor will use for a range — callers allocating
// one result slot per chunk size their vectors with this.
inline size_t ChunkCount(size_t begin, size_t end, size_t grain) {
  if (begin >= end) return 0;
  if (grain == 0) grain = 1;
  return (end - begin + grain - 1) / grain;
}

// One default-constructed T per worker slot, padded to a cache line so
// two workers' scratch (DtwWorkspace, envelope storage, stat counters) never
// false-share. Index with the worker argument ParallelFor hands each
// chunk.
template <typename T>
class PerThread {
 public:
  explicit PerThread(size_t slots) : slots_(slots == 0 ? 1 : slots) {}
  explicit PerThread(const ThreadPool* pool)
      : PerThread(pool == nullptr ? 1 : pool->size()) {}

  T& operator[](size_t worker) { return slots_[worker].value; }
  const T& operator[](size_t worker) const { return slots_[worker].value; }
  size_t size() const { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace warp

#endif  // WARP_COMMON_PARALLEL_H_
