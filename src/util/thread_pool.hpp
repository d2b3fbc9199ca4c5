// Work-stealing thread pool for deterministic sharded campaigns.
//
// The pool executes index-space jobs: parallel_for(count, body) runs
// body(i) for every i in [0, count) exactly once and blocks until all are
// done. A pool of n executors is the calling thread (executor 0) plus n - 1
// worker threads. A job uses min(count, n) executors: each starts with one
// contiguous index range, and one that drains its range steals the upper
// half of the largest remaining range, so uneven shard costs still
// load-balance. Only the workers a job uses are woken, so a job that needs
// one executor runs inline on the caller without waking any.
//
// Determinism contract (see DESIGN.md "Parallel campaign"): the pool
// guarantees NOTHING about execution order or which thread runs which
// index. Callers make results thread-count-invariant by deriving all
// per-shard state (RNG streams, simulator instances) from the shard index
// alone — util::split_mix64(seed, shard) — and writing to disjoint,
// index-keyed output slots that are merged in index order afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace aegis::util {

class ThreadPool {
 public:
  /// num_threads counts executors, the calling thread included: the pool
  /// starts num_threads - 1 workers. 0 = one executor per hardware thread
  /// (std::thread::hardware_concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Resolves the `0 = hardware_concurrency` convention used by the
  /// num_threads knobs (FuzzerConfig, ProfilerConfig) without building a pool.
  static std::size_t resolve(std::size_t num_threads) noexcept;

  /// Executors per job at most: the caller plus the worker threads.
  std::size_t size() const noexcept { return shards_.size(); }

  /// Runs body(i) for every i in [0, count); blocks until all complete.
  /// The calling thread runs indices too. The first exception thrown by
  /// any body is rethrown on the caller after the remaining indices have
  /// still been executed. One caller at a time, and not reentrant: must
  /// not be called from inside a pool task.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  using Body = std::function<void(std::size_t)>;

  // One per executor slot of the running job: the contiguous [begin, end)
  // index range that slot still owns. unique_ptr keeps Shard addresses
  // stable (std::mutex is immovable).
  struct Shard {
    // aegis-lint: lock-level(51)
    std::mutex mu;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop();
  /// Claims and runs indices as executor `slot` of a `width`-slot job until
  /// none is left to claim; returns how many it ran.
  std::size_t run_slot(std::size_t slot, std::size_t width, const Body& body);
  bool claim_index(std::size_t slot, std::size_t width, std::size_t& index);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;

  // aegis-lint: lock-level(50)
  std::mutex mu_;                    // guards the job state below
  std::condition_variable work_cv_;  // workers wait for a ticket
  std::condition_variable done_cv_;  // the caller waits for completion
  const Body* body_ = nullptr;
  std::size_t width_ = 0;      // executor slots of the running job
  // Worker seats left in the running job. A worker that takes one becomes
  // the slot it names; the caller cancels the rest when the job ends, so a
  // worker that wakes late never joins a finished job.
  std::size_t tickets_ = 0;
  std::size_t remaining_ = 0;  // indices not yet completed this job
  std::size_t active_ = 0;     // workers still inside this job
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace aegis::util
