#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace opckit::util {
namespace {

TEST(ThreadPool, RunsAllIterationsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleIteration) {
  ThreadPool pool(8);
  std::atomic<int> n{0};
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++n;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, MoreWorkThanThreads) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  pool.parallel_for(10000,
                    [&](std::size_t i) { sum += static_cast<long long>(i); });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 57) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(10, [&](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> n{0};
  pool.parallel_for(10, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A worker issuing its own parallel_for must run it inline instead of
  // queueing (queueing from a worker can deadlock a saturated pool).
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(50, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, NestedOnAnotherPoolAlsoRunsInline) {
  // tl_pool_worker is pool-agnostic: a worker of pool A must not block
  // inside pool B either, since B's workers may themselves be waiting.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> total{0};
  outer.parallel_for(6, [&](std::size_t) {
    inner.parallel_for(40, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 6 * 40);
}

TEST(ThreadPool, ConcurrentExternalCallersShareOnePool) {
  // Several non-worker threads driving the same pool at once: each call's
  // completion record is stack-local, so waits must not cross-talk.
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  constexpr std::size_t kCount = 500;
  std::atomic<long long> sum{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      pool.parallel_for(kCount, [&](std::size_t i) {
        sum += static_cast<long long>(i);
      });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(sum.load(), kCallers * (kCount * (kCount - 1) / 2));
}

TEST(ThreadPool, NestedExceptionPropagatesThroughBothLevels) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(4,
                                 [&](std::size_t) {
                                   pool.parallel_for(20, [&](std::size_t i) {
                                     if (i == 13) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
  // Pool must stay healthy afterwards.
  std::atomic<int> n{0};
  pool.parallel_for(32, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 32);
}

TEST(ThreadPool, StressRepeatedConcurrentAndNestedUse) {
  // Hammer the completion-handshake under TSan: concurrent external
  // callers, each issuing nested calls, across several rounds.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> total{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&] {
        pool.parallel_for(16, [&](std::size_t) {
          pool.parallel_for(8, [&](std::size_t) { ++total; });
        });
      });
    }
    for (auto& c : callers) c.join();
    EXPECT_EQ(total.load(), 4 * 16 * 8);
  }
}

TEST(ThreadPool, SubmitRunsFireAndForgetJobs) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load() == 16; });
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, SubmitRunsQueuedJobsInSubmissionOrder) {
  // One worker; a gate job holds it so everything else queues up. Once
  // released, the queue must drain in submission order.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool gate_running = false;
  std::vector<int> order;
  bool done = false;

  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    gate_running = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    // Wait until the gate OWNS the worker, so later submits can't sneak
    // ahead of it.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_running; });
  }

  for (const int tag : {3, 0, 5, 1, 4}) {
    pool.submit([&, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
    });
  }
  pool.submit([&] {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });  // submitted last: runs last, acts as the drain latch

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_EQ(order, (std::vector<int>{3, 0, 5, 1, 4}));
}

}  // namespace
}  // namespace opckit::util
