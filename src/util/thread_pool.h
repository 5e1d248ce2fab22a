/// \file thread_pool.h
/// Fixed-size worker pool with a blocking parallel_for.
///
/// A flow run owns one for its tiles (parallel_for) and the service
/// daemon one for its jobs (submit); a tile or a job, images included,
/// runs wholly on its worker. The pool is deliberately simple: one FIFO
/// queue and deterministic work partitioning (static chunking), so
/// results are bit-identical regardless of scheduling.
///
/// Locking protocol (kept minimal so TSan can prove it):
///  * `mutex_` guards `jobs_` and `stop_`; `cv_` is signalled after a
///    push or stop while workers wait on it. Nothing else is touched
///    under `mutex_`.
///  * Each parallel_for call owns a stack-local completion record
///    (remaining count, first captured exception, mutex + condvar). ALL
///    of it — including the counter — is guarded by that record's mutex,
///    and the finishing worker notifies while still holding the lock.
///    This ordering is load-bearing: if the counter were decremented
///    before the lock (e.g. as a bare atomic), the waiting caller could
///    observe zero, return, and unwind the record while the worker is
///    still about to lock it.
///  * Workers never hold `mutex_` while running a job, so jobs may
///    freely submit new work.
///  * Nested use: a job that itself calls parallel_for (on any pool)
///    runs its iterations inline. The caller already occupies a worker
///    slot — queueing and blocking could deadlock once every worker
///    waits on jobs parked behind it — and inline execution keeps the
///    per-chunk accumulation order deterministic.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace opckit::util {

/// A fixed pool of worker threads executing queued jobs.
class ThreadPool {
 public:
  /// Create a pool with \p threads workers; 0 means hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [0, count) across the pool and block until all
  /// iterations complete. Work is split into contiguous static chunks, one
  /// per worker, so any per-chunk accumulation order is deterministic.
  /// Exceptions thrown by \p fn are captured and the first is rethrown.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Enqueue one fire-and-forget job; jobs dequeue in submission order.
  /// The service daemon runs its jobs this way, after its own admission
  /// queue has put them in priority order (see src/service/server.h).
  /// \p fn must not let exceptions escape — there is no completion record
  /// to carry them, so an escape terminates the process (plain
  /// std::thread semantics).
  void submit(std::function<void()> fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> jobs_;  ///< FIFO
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace opckit::util
