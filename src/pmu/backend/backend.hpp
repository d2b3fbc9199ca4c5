// Multi-vendor PMU backend layer (see DESIGN.md "PMU backends").
//
// A PmuBackend bundles everything SKU-specific about one processor model:
//   * the synthetic EventDatabase (paper Table I/II scale),
//   * the counter budget — 4 programmable core counters on both paper
//     testbeds,
//   * per-SKU name overrides (the perf generic alias -> vendor raw event),
//   * the default attack-event set the paper's attacks monitor on this
//     vendor (Section III-B on AMD; the Intel equivalents on Xeon E5).
//
// Everything here is a pure function of the CpuModel: backends hold no
// mutable state and the wrapped database is exactly
// EventDatabase::generate(model) — so routing call sites through the
// backend changes no bytes anywhere (the AMD goldens are pinned by
// tests/backend_test.cpp).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "pmu/event_database.hpp"

namespace aegis::pmu::backend {

/// One processor model's PMU personality. Concrete implementations:
/// AmdZen2Backend (EPYC 7252 / 7313P) and IntelXeonE5Backend (E5-1650 /
/// E5-4617), registered per model in BackendRegistry.
class PmuBackend {
 public:
  virtual ~PmuBackend();
  PmuBackend(const PmuBackend&) = delete;
  PmuBackend& operator=(const PmuBackend&) = delete;

  isa::CpuModel model() const noexcept { return db_.model(); }

  /// Stable backend identifier, one per vendor family ("amd-zen2",
  /// "intel-xeon-e5"). Flows into TemplateCache keys, serialize headers
  /// and BENCH_*.json artifacts so cross-SKU comparisons fail loudly.
  virtual std::string_view id() const noexcept = 0;

  /// The model's event database — byte-identical to calling
  /// EventDatabase::generate(model()) directly (single shared instance).
  const EventDatabase& database() const noexcept { return db_; }

  /// Programmable core counters available for concurrent monitoring
  /// (paper: 4 on both testbeds).
  std::size_t counter_budget() const noexcept {
    return EventDatabase::kNumCounters;
  }

  /// Default attack-event names for this vendor (paper Section III-B on
  /// AMD; the Xeon E5 equivalents on Intel). Size == counter_budget().
  virtual std::vector<std::string_view> attack_event_names() const = 0;

  /// attack_event_names() resolved to database ids, in order.
  std::vector<std::uint32_t> attack_events() const;

  /// Per-SKU name override: the vendor raw event a perf generic alias
  /// resolves to on this SKU ("" = no override, use the shared name).
  /// Model: faultline's PMUCounter::skuOverride.
  virtual std::string_view sku_override(std::string_view name) const noexcept;

  /// find() that honours sku_override: resolves `name` directly, or via
  /// its override when the shared name needs SKU-specific spelling.
  std::optional<std::uint32_t> resolve(std::string_view name) const noexcept;

 protected:
  explicit PmuBackend(isa::CpuModel model);

 private:
  EventDatabase db_;
};

}  // namespace aegis::pmu::backend
