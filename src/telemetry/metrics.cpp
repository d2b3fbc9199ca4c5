#include "telemetry/metrics.hpp"

namespace aegis::telemetry {

namespace detail {

std::uint32_t thread_shard() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

}  // namespace detail

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<detail::CounterCell>())
             .first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<detail::GaugeCell>())
             .first;
  }
  return Gauge(it->second.get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    out.counters.push_back({name, cell->total()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    out.gauges.push_back({name, cell->get()});
  }
  return out;
}

}  // namespace aegis::telemetry
