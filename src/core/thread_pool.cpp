#include "core/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace rhw {

namespace {
thread_local bool t_inside_pool_worker = false;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = queue_.back();
      queue_.pop_back();
    }
    std::exception_ptr error;
    try {
      (*task.fn)(task.begin, task.end);
    } catch (...) {
      error = std::current_exception();
    }
    // Notify while holding the lock: once pending reaches 0 the caller may
    // return and destroy the latch.
    std::lock_guard lock(mutex_);
    if (error && !task.latch->error) task.latch->error = error;
    if (--task.latch->pending == 0) task.latch->done.notify_all();
  }
}

void ThreadPool::parallel_for(int64_t n,
                              const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  const int64_t workers = static_cast<int64_t>(size());
  if (workers == 0 || t_inside_pool_worker || n == 1) {
    fn(0, n);
    return;
  }
  const int64_t chunks = std::min<int64_t>(workers + 1, n);
  const int64_t step = (n + chunks - 1) / chunks;

  // The calling thread takes the first chunk itself; the rest go to the pool
  // and count down this call's latch.
  Latch latch;
  {
    std::lock_guard lock(mutex_);
    for (int64_t c = 1; c < chunks; ++c) {
      const int64_t b = c * step;
      const int64_t e = std::min<int64_t>(n, b + step);
      if (b >= e) continue;
      queue_.push_back(Task{&fn, b, e, &latch});
      ++latch.pending;
    }
  }
  cv_task_.notify_all();
  // Queued chunks point at fn and the latch, so wait for them even when the
  // caller's own chunk throws.
  std::exception_ptr error;
  try {
    fn(0, std::min<int64_t>(step, n));
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::unique_lock lock(mutex_);
    latch.done.wait(lock, [&latch] { return latch.pending == 0; });
    if (!error) error = latch.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static ThreadPool pool([] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 1u;
  }());
  return pool;
}

void parallel_for(int64_t n, const std::function<void(int64_t, int64_t)>& fn) {
  global_pool().parallel_for(n, fn);
}

}  // namespace rhw
