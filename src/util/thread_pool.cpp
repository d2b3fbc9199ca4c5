#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace aegis::util {

std::size_t ThreadPool::resolve(std::size_t num_threads) noexcept {
  if (num_threads != 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = resolve(num_threads);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Executor 0 is whichever thread calls parallel_for.
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::claim_index(std::size_t slot, std::size_t width,
                             std::size_t& index) {
  // Own shard first: consume from the front.
  {
    Shard& own = *shards_[slot];
    std::lock_guard<std::mutex> lock(own.mu);
    if (own.begin < own.end) {
      index = own.begin++;
      return true;
    }
  }
  // Steal: take the upper half of the largest remaining shard of this job.
  // The scan is racy by design (sizes move while scanning); the re-check
  // under both locks below makes it safe, and a stale pick only costs a
  // rescan. Shards past `width` hold ranges of an earlier job and are
  // never read.
  while (true) {
    std::size_t victim = width;
    std::size_t victim_left = 0;
    for (std::size_t i = 0; i < width; ++i) {
      if (i == slot) continue;
      Shard& s = *shards_[i];
      std::lock_guard<std::mutex> lock(s.mu);
      const std::size_t left = s.end - s.begin;
      if (left > victim_left) {
        victim_left = left;
        victim = i;
      }
    }
    if (victim == width) return false;  // everything drained
    Shard& v = *shards_[victim];
    Shard& own = *shards_[slot];
    std::scoped_lock lock(v.mu, own.mu);
    if (v.begin >= v.end) continue;  // drained meanwhile; rescan
    // Thief takes [mid, end) — at least one index; the victim keeps the
    // lower half and continues consuming from its front undisturbed.
    const std::size_t mid = v.begin + (v.end - v.begin) / 2;
    own.begin = mid;
    own.end = v.end;
    v.end = mid;
    index = own.begin++;
    return true;
  }
}

std::size_t ThreadPool::run_slot(std::size_t slot, std::size_t width,
                                 const Body& body) {
  std::size_t done = 0;
  std::size_t index = 0;
  while (claim_index(slot, width, index)) {
    try {
      body(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    ++done;
  }
  return done;
}

void ThreadPool::worker_loop() {
  while (true) {
    const Body* body = nullptr;
    std::size_t slot = 0;
    std::size_t width = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || tickets_ > 0; });
      if (stop_) return;
      // Tickets count down from width - 1, so takers get slots 1, 2, ...
      slot = width_ - tickets_--;
      width = width_;
      body = body_;
      ++active_;
    }
    const std::size_t done = run_slot(slot, width, *body);
    {
      std::lock_guard<std::mutex> lock(mu_);
      remaining_ -= done;
      --active_;
      if (remaining_ == 0 && active_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count, const Body& body) {
  if (count == 0) return;
  // Seed each executor slot of this job with an even contiguous slice of
  // the index space. The previous job's workers have all left (active_
  // reached 0 under mu_), and no worker reads a shard before taking a
  // ticket under mu_ below, so these writes cannot race a claim.
  const std::size_t width = std::min(count, size());
  const std::size_t chunk = count / width;
  const std::size_t extra = count % width;
  std::size_t next = 0;
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t len = chunk + (i < extra ? 1 : 0);
    Shard& s = *shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    s.begin = next;
    s.end = next + len;
    next += len;
  }
  // A one-slot job posts no ticket: no worker wakes or joins, the caller
  // runs every index inline and the completion wait below returns at once.
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    width_ = width;
    remaining_ = count;
    tickets_ = width - 1;
  }
  for (std::size_t i = 1; i < width; ++i) work_cv_.notify_one();
  const std::size_t done = run_slot(0, width, body);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    remaining_ -= done;
    done_cv_.wait(lock, [&] { return remaining_ == 0 && active_ == 0; });
    tickets_ = 0;  // workers that have not woken yet stay out
    body_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace aegis::util
