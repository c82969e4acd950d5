#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace mdw {

namespace {

// Set for the lifetime of every pool worker thread: a ParallelFor issued
// from inside a task must not block on the (possibly busy) queue, so it
// runs inline instead.
thread_local bool tls_pool_worker = false;

/// Completion protocol shared by the ParallelFor variants: every executed
/// item calls Mark() exactly once; the caller blocks in AwaitAll() until
/// all `total` items are done (stragglers may still be inside their drain
/// loop at that point — they only touch this state, which the helper
/// closures keep alive).
struct Completion {
  std::atomic<std::int64_t> done{0};
  std::int64_t total = 0;
  std::mutex mu;
  std::condition_variable all_done;

  void Mark() {
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      std::lock_guard<std::mutex> lock(mu);
      all_done.notify_all();
    }
  }

  void AwaitAll() {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] {
      return done.load(std::memory_order_acquire) == total;
    });
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  MDW_CHECK(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::ResolveWorkers(int num_workers) {
  MDW_CHECK(num_workers >= 0,
            "num_workers must be 0 (hardware) or a positive degree");
  if (num_workers > 0) return num_workers;
  // The CPUs this thread may run on: an affinity mask (taskset, a
  // cpuset) can grant far fewer than the machine has.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (::sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int allowed = CPU_COUNT(&mask);
    if (allowed > 0) return allowed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::WorkerLoop() {
  tls_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::RunDrain(std::int64_t total,
                          const std::function<void()>& drain) const {
  const std::int64_t helpers = std::min<std::int64_t>(
      static_cast<std::int64_t>(workers_.size()), total - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::int64_t h = 0; h < helpers; ++h) {
      tasks_.emplace_back(drain);
    }
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else if (helpers > 1) {
    cv_.notify_all();
  }
  // The caller claims work too, then (in AwaitAll) waits for stragglers
  // to finish the items they already claimed.
  drain();
}

void ThreadPool::ParallelFor(
    std::int64_t n, const std::function<void(std::int64_t)>& fn) const {
  ParallelFor(n, fn, CancellationToken());
}

bool ThreadPool::ParallelFor(std::int64_t n,
                             const std::function<void(std::int64_t)>& fn,
                             const CancellationToken& cancel) const {
  if (n <= 0) return true;
  if (n == 1 || tls_pool_worker) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (cancel.ShouldStop()) return false;
      fn(i);
    }
    return true;
  }

  // Shared claim/completion state; kept alive by the helper closures in
  // case stragglers dequeue after the caller has already returned.
  struct ForState {
    std::atomic<std::int64_t> next{0};
    std::atomic<std::int64_t> skipped{0};
    const std::function<void(std::int64_t)>* fn;
    CancellationToken cancel;
    Completion completion;
  };
  auto state = std::make_shared<ForState>();
  state->completion.total = n;
  state->fn = &fn;
  state->cancel = cancel;

  RunDrain(n, [state] {
    ForState& s = *state;
    while (true) {
      const std::int64_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.completion.total) break;
      // A tripped token abandons the index, but the claim still counts
      // toward completion so the caller's AwaitAll terminates promptly:
      // every lane races through the remaining claims without running fn.
      if (s.cancel.ShouldStop()) {
        s.skipped.fetch_add(1, std::memory_order_relaxed);
      } else {
        (*s.fn)(i);
      }
      s.completion.Mark();
    }
  });
  state->completion.AwaitAll();
  return state->skipped.load(std::memory_order_acquire) == 0;
}

void ThreadPool::ParallelForQueues(
    const std::vector<std::int64_t>& queue_sizes,
    const std::function<void(int, std::int64_t)>& fn) const {
  ParallelForQueues(queue_sizes, fn, CancellationToken());
}

bool ThreadPool::ParallelForQueues(
    const std::vector<std::int64_t>& queue_sizes,
    const std::function<void(int, std::int64_t)>& fn,
    const CancellationToken& cancel) const {
  const int num_queues = static_cast<int>(queue_sizes.size());
  std::int64_t total = 0;
  for (const std::int64_t size : queue_sizes) {
    MDW_CHECK(size >= 0, "queue sizes must be non-negative");
    total += size;
  }
  if (total <= 0) return true;
  if (total == 1 || tls_pool_worker) {
    for (int q = 0; q < num_queues; ++q) {
      for (std::int64_t i = 0; i < queue_sizes[static_cast<std::size_t>(q)];
           ++i) {
        if (cancel.ShouldStop()) return false;
        fn(q, i);
      }
    }
    return true;
  }

  // Shared claim/completion state; kept alive by the helper closures in
  // case stragglers dequeue after the caller has already returned.
  struct QueuesState {
    std::unique_ptr<std::atomic<std::int64_t>[]> next;
    std::atomic<int> owner{0};
    std::atomic<std::int64_t> skipped{0};
    std::vector<std::int64_t> sizes;
    const std::function<void(int, std::int64_t)>* fn;
    CancellationToken cancel;
    Completion completion;
  };
  auto state = std::make_shared<QueuesState>();
  state->next =
      std::make_unique<std::atomic<std::int64_t>[]>(
          static_cast<std::size_t>(num_queues));
  for (int q = 0; q < num_queues; ++q) state->next[q].store(0);
  state->sizes = queue_sizes;
  state->completion.total = total;
  state->fn = &fn;
  state->cancel = cancel;

  RunDrain(total, [state, num_queues] {
    // Affinity phase: claim the next unowned queue and drain it; once it
    // is empty, steal from the other queues in cyclic order. A cursor past
    // a queue's size just means the queue is drained.
    QueuesState& s = *state;
    const int q0 = s.owner.fetch_add(1, std::memory_order_relaxed) %
                   num_queues;
    for (int off = 0; off < num_queues; ++off) {
      const int q = (q0 + off) % num_queues;
      while (true) {
        const std::int64_t i =
            s.next[q].fetch_add(1, std::memory_order_relaxed);
        if (i >= s.sizes[static_cast<std::size_t>(q)]) break;
        // Same abandon-but-count protocol as the cancellable
        // ParallelFor: claims keep draining so AwaitAll terminates.
        if (s.cancel.ShouldStop()) {
          s.skipped.fetch_add(1, std::memory_order_relaxed);
        } else {
          (*s.fn)(q, i);
        }
        s.completion.Mark();
      }
    }
  });
  state->completion.AwaitAll();
  return state->skipped.load(std::memory_order_acquire) == 0;
}

}  // namespace mdw
