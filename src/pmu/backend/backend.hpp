// PMU backend: one processor model's PMU personality (see DESIGN.md "PMU
// backends").
//
// A PmuBackend bundles everything SKU-specific about one processor model:
//   * the synthetic EventDatabase (paper Table I/II scale),
//   * the backend id of its vendor family, recorded wherever a result must
//     name the PMU it came from,
//   * the default attack events the paper's attacks monitor on this
//     vendor (Section III-B on AMD; the Intel equivalents on Xeon E5).
//
// The two vendor families differ only in data: the id and the attack-event
// names come from a two-row table picked by isa::vendor_of(model). Each
// model has one lazily built, process-wide instance, and its database is
// exactly EventDatabase::generate(model) — so routing call sites through
// the backend changes no bytes anywhere (pinned by tests/backend_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "pmu/event_database.hpp"

namespace aegis::pmu::backend {

class PmuBackend {
 public:
  PmuBackend(const PmuBackend&) = delete;
  PmuBackend& operator=(const PmuBackend&) = delete;

  isa::CpuModel model() const noexcept { return db_.model(); }

  /// Stable backend identifier, one per vendor family ("amd-zen2",
  /// "intel-xeon-e5"). Flows into TemplateCache keys, serialize headers
  /// and BENCH_*.json artifacts so cross-SKU comparisons fail loudly.
  std::string_view id() const noexcept { return id_; }

  /// The model's event database — byte-identical to calling
  /// EventDatabase::generate(model()) directly (single shared instance).
  const EventDatabase& database() const noexcept { return db_; }

  /// The vendor's default attack events as database ids, one per counter
  /// register (EventDatabase::kNumCounters).
  std::vector<std::uint32_t> attack_events() const { return attack_events_; }

 private:
  explicit PmuBackend(isa::CpuModel model);
  friend const PmuBackend& backend_for(isa::CpuModel model);

  EventDatabase db_;
  std::string_view id_;
  std::vector<std::uint32_t> attack_events_;
};

/// The process-wide backend of one model, built on first use: a binary
/// that only ever touches AMD never generates the Intel databases.
const PmuBackend& backend_for(isa::CpuModel model);

/// Shorthand for backend_for(model).id().
std::string_view backend_id(isa::CpuModel model);

/// Parses a CPU selector: a vendor shorthand ("amd", "intel"), a model
/// token ("AmdEpyc7252", ...) or a full model name ("AMD EPYC 7252", ...).
std::optional<isa::CpuModel> parse_cpu_model(std::string_view text) noexcept;

/// Tool-facing model selection: the AEGIS_CPU environment variable when
/// set, `fallback` when it is unset or empty. Throws std::invalid_argument
/// naming the value when it is set but not a CPU selector, so a mistyped
/// variable fails loudly instead of running the fallback. Benches and the CI
/// Intel leg steer whole runs through one backend with this (the library
/// itself never reads it — determinism stays config-driven).
isa::CpuModel model_from_env(
    isa::CpuModel fallback = isa::CpuModel::kAmdEpyc7252);

}  // namespace aegis::pmu::backend
