// Outside-in probes: clocks and decorators the benchmark wraps around the
// public calls of each Aegis layer. A probe only observes: every decorated
// call forwards to the bare object with the same arguments, so decorated
// and bare runs produce bit-identical traces (tests/e2ebench_test.cpp).
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "attack/dataset.hpp"
#include "workload/workload.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of this process so far, summed over all its threads, exited
/// ones included. Unlike wall time, it leaves out the time a virtual
/// machine's vCPUs spend descheduled by a busy host (steal time).
inline double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Pins the calling thread to the `index`-th of the CPUs it may run on
/// (cycling) while in scope, then restores its affinity. On a shared host
/// the vCPUs run at different speeds, and a lone thread stays on one, so a
/// single-threaded phase repeated under indexes 0, 1, ... samples them all.
/// Threads started while pinned inherit the one CPU: wrap only code that
/// starts none.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t index);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Busy time and work count of one layer, summed across every thread that
/// calls into it. Lock-free, so it is safe from session-pool workers.
class LayerMeter {
 public:
  void add(Clock::duration busy, std::uint64_t work) noexcept {
    busy_ns_.fetch_add(static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                               .count()),
                       std::memory_order_relaxed);
    work_.fetch_add(work, std::memory_order_relaxed);
  }
  double busy_seconds() const noexcept {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }
  std::uint64_t work() const noexcept {
    return work_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> work_{0};
};

/// Workload-layer meters: `gen` holds the time spent in visit() and in
/// BlockSource calls and counts the instruction blocks produced; `visits`
/// counts executions (one per trace) and `slices` BlockSource calls.
struct WorkloadProbe {
  LayerMeter gen;
  std::atomic<std::uint64_t> visits{0};
  std::atomic<std::uint64_t> slices{0};

  /// Decorated views of `secrets`, feeding this probe. The secrets and the
  /// probe must outlive the views and every BlockSource they return.
  std::vector<std::unique_ptr<aegis::workload::Workload>> wrap(
      const std::vector<std::unique_ptr<aegis::workload::Workload>>& secrets);
};

/// Workload decorator that forwards to `inner` and feeds `probe`.
class TimedWorkload final : public aegis::workload::Workload {
 public:
  TimedWorkload(const aegis::workload::Workload& inner,
                WorkloadProbe& probe) noexcept
      : inner_(&inner), probe_(&probe) {}

  aegis::sim::BlockSource visit(std::uint64_t visit_seed) const override;
  std::size_t trace_slices() const override { return inner_->trace_slices(); }
  std::string name() const override { return inner_->name(); }

 private:
  const aegis::workload::Workload* inner_;
  WorkloadProbe* probe_;
};

/// AgentFactory decorator: every agent it builds times its slice calls into
/// `meter` (work = slice calls). `meter` must outlive the agents.
aegis::attack::AgentFactory timed_agents(aegis::attack::AgentFactory inner,
                                         LayerMeter& meter);

}  // namespace e2ebench
