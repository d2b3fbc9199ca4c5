// Allocation-free metrics plane.
//
// Registration (MetricsRegistry::counter/gauge) is the slow path: it takes
// a mutex and may allocate, so it must happen once, at construction time,
// OUTSIDE noalloc regions (enforced by the aegis-lint `telemetry-handle`
// rule). The returned handle is a trivially-copyable pointer wrapper whose
// record operations (inc/add/set) are lock-free, allocation-free and
// safe from any thread.
//
// Counters shard across kCounterShards cache-line-padded atomics indexed by a
// per-thread ordinal (assigned from a global atomic counter, NOT std::hash,
// which aegis-lint bans) so concurrent writers do not bounce one line.
// Snapshots sum the shards; the registry's ordered map storage makes export
// order deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aegis::telemetry {

namespace detail {

inline constexpr std::size_t kCounterShards = 8;

/// Ordinal of the calling thread, used to pick a counter shard.
std::uint32_t thread_shard() noexcept;

struct alignas(64) PaddedAtomicU64 {
  std::atomic<std::uint64_t> value{0};
};

struct CounterCell {
  PaddedAtomicU64 shards[kCounterShards];

  void inc(std::uint64_t n) noexcept {
    shards[thread_shard() % kCounterShards].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards) sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }
};

/// fetch_add on atomic<double> is C++20 but not universally lock-free;
/// a CAS loop is portable and still wait-free in the uncontended case.
inline void atomic_add_double(std::atomic<double>& a, double delta) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed,
                                  std::memory_order_relaxed)) {
  }
}

struct GaugeCell {
  std::atomic<double> value{0.0};

  void set(double v) noexcept { value.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { atomic_add_double(value, delta); }
  double get() const noexcept { return value.load(std::memory_order_relaxed); }
};

}  // namespace detail

/// Handle to a monotonically increasing counter. Null-safe: a
/// default-constructed handle is a no-op, so instrumented code never branches
/// on "is telemetry attached".
class Counter {
 public:
  constexpr Counter() noexcept = default;
  explicit constexpr Counter(detail::CounterCell* cell) noexcept
      : cell_(cell) {}

  void inc(std::uint64_t n = 1) const noexcept {
    if (cell_ != nullptr) cell_->inc(n);
  }
  std::uint64_t value() const noexcept {
    return cell_ != nullptr ? cell_->total() : 0;
  }

 private:
  detail::CounterCell* cell_ = nullptr;
};

class Gauge {
 public:
  constexpr Gauge() noexcept = default;
  explicit constexpr Gauge(detail::GaugeCell* cell) noexcept : cell_(cell) {}

  void set(double v) const noexcept {
    if (cell_ != nullptr) cell_->set(v);
  }
  void add(double delta) const noexcept {
    if (cell_ != nullptr) cell_->add(delta);
  }
  double value() const noexcept { return cell_ != nullptr ? cell_->get() : 0.0; }

 private:
  detail::GaugeCell* cell_ = nullptr;
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

/// Point-in-time copy of every metric, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Idempotent: the same name always resolves to the same cell.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  // aegis-lint: lock-level(52, noblock)
  mutable std::mutex mu_;
  // Ordered map: stable iteration order → deterministic snapshots/exports,
  // and node-based storage keeps cell addresses stable across insertions.
  std::map<std::string, std::unique_ptr<detail::CounterCell>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>, std::less<>>
      gauges_;
};

}  // namespace aegis::telemetry
