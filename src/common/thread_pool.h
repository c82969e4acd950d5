#ifndef MDW_COMMON_THREAD_POOL_H_
#define MDW_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"

namespace mdw {

/// A small fixed-size worker pool for partition-parallel execution (the
/// paper's processing model: one warehouse query fans out into independent
/// fragment subqueries processed concurrently by the PEs). The pool is the
/// process-side analogue: `ParallelFor` distributes independent task
/// indices dynamically over the workers and the calling thread.
///
/// Determinism contract: ParallelFor guarantees every index in [0, n) is
/// executed exactly once; callers that accumulate into per-index slots and
/// merge in index order get results independent of the worker count and of
/// scheduling.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1). Note that ParallelFor
  /// also runs tasks on the calling thread, so a pool of size 1 already
  /// gives two lanes of execution.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Maps a WarehouseConfig-style degree to an actual worker count:
  /// 0 means "use the hardware" — the CPUs in the calling thread's
  /// affinity mask (sched_getaffinity), or std::thread::hardware_concurrency
  /// where the mask cannot be read; at least 1. Any positive value is
  /// taken as-is.
  static int ResolveWorkers(int num_workers);

  /// Runs fn(i) for every i in [0, n) exactly once, distributing indices
  /// dynamically over the pool's workers plus the calling thread, and
  /// returns when all n invocations have finished. fn must be safe to
  /// invoke concurrently for distinct indices. Reentrant calls from inside
  /// a pool task degrade to a serial loop on the calling thread, so nested
  /// use cannot deadlock the pool.
  void ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t)>& fn) const;

  /// Cancellable ParallelFor: polls `cancel` before every index claim.
  /// Once the token trips, no further fn invocations start (in-flight
  /// ones run to completion — cancellation is cooperative). Returns true
  /// iff every index in [0, n) actually ran; false means at least one
  /// index was abandoned, so per-index partials are incomplete and the
  /// caller must discard them (the determinism contract covers only
  /// complete runs). An unarmed token never trips: behaviour and cost
  /// match the plain overload up to one null check per index.
  bool ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t)>& fn,
                   const CancellationToken& cancel) const;

  /// Affinity scheduling with idle-worker stealing: `queue_sizes[q]` items
  /// sit in queue q; fn(q, i) is invoked exactly once for every queue q and
  /// item i in [0, queue_sizes[q]). Each parallel lane first claims an
  /// unowned queue (round-robin over lanes, so with as many lanes as
  /// queues every queue gets a dedicated lane) and drains it to
  /// completion — the affinity phase — then steals items from the
  /// remaining queues in cyclic order until nothing is left. Used by the
  /// sharded executor: one queue per shard keeps a worker on one shard's
  /// rows while it lasts, stealing only when its shard runs dry, so skewed
  /// shards never idle the rest of the pool. Same exactly-once and
  /// reentrancy guarantees as ParallelFor; determinism is the caller's
  /// merge discipline (per-item slots, fixed merge order).
  void ParallelForQueues(
      const std::vector<std::int64_t>& queue_sizes,
      const std::function<void(int, std::int64_t)>& fn) const;

  /// Cancellable ParallelForQueues; same tripped-token semantics and
  /// all-items-ran return value as the cancellable ParallelFor.
  bool ParallelForQueues(
      const std::vector<std::int64_t>& queue_sizes,
      const std::function<void(int, std::int64_t)>& fn,
      const CancellationToken& cancel) const;

 private:
  void WorkerLoop();
  /// Shared scaffolding of the ParallelFor variants: enqueues up to
  /// `total - 1` helper tasks running `drain` (which must keep claiming
  /// items until none are left), wakes workers, and runs `drain` on the
  /// calling thread too. Completion is the caller's to await — drain
  /// closures own the shared state, so stragglers outlive the call
  /// safely.
  void RunDrain(std::int64_t total,
                const std::function<void()>& drain) const;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mdw

#endif  // MDW_COMMON_THREAD_POOL_H_
