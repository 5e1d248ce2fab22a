#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

#include "util/check.h"

namespace opckit::util {

namespace {
/// True on threads that belong to any ThreadPool; parallel_for uses it
/// to detect nested calls and run them inline (see header protocol).
thread_local bool tl_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tl_pool_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t chunks = std::min(count, size());
  if (chunks <= 1 || tl_pool_worker) {
    // Single chunk, or a nested call from inside a worker: run inline
    // (queueing from a worker can deadlock the pool — header protocol).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Per-call completion record, fully guarded by done_mutex. The
  // finishing worker must notify while HOLDING the lock so this frame
  // cannot unwind between its decrement and its notify.
  std::size_t remaining = chunks;
  std::exception_ptr first_error;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < extra ? 1 : 0);
    const std::size_t end = begin + len;
    OPCKIT_DCHECK(end <= count);
    auto job = [&, begin, end] {
      std::exception_ptr err;
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mutex);
      if (err && !first_error) first_error = err;
      if (--remaining == 0) done_cv.notify_all();
    };
    {
      std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(std::move(job));
    }
    begin = end;
  }
  OPCKIT_DCHECK(begin == count);
  cv_.notify_all();

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

}  // namespace opckit::util
