// A small fixed-size thread pool with a parallel_for helper.
//
// Used by the GEMM kernel and batched evaluation loops. A single process-wide
// pool (global_pool) avoids oversubscription when layers nest.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rhw {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Runs fn(chunk_begin, chunk_end) over [0, n) split into roughly equal
  // contiguous chunks, one per worker (plus the calling thread). Blocks until
  // every chunk of *this call* completes: each call waits on its own
  // completion latch, so concurrent callers (serve lanes, a sweep's caller
  // lane) never wait on each other's chunks. Reentrant calls from inside a
  // worker fall back to serial execution to avoid deadlock. An exception
  // thrown by any chunk, on the caller or on a worker, is rethrown here
  // after every chunk of the call has finished (the first one wins).
  void parallel_for(int64_t n,
                    const std::function<void(int64_t, int64_t)>& fn);

 private:
  // One per parallel_for call: the count of its chunks still queued or
  // running, and the first exception one of them threw. Guarded by mutex_.
  struct Latch {
    int64_t pending = 0;
    std::exception_ptr error;
    std::condition_variable done;
  };
  struct Task {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    Latch* latch = nullptr;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::vector<Task> queue_;
  bool stop_ = false;
};

// Process-wide pool sized to hardware_concurrency (minus one for the caller).
ThreadPool& global_pool();

// Convenience wrapper over global_pool().parallel_for.
void parallel_for(int64_t n, const std::function<void(int64_t, int64_t)>& fn);

}  // namespace rhw
