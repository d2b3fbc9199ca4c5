// Observability snapshot for the Aegis protection service.
//
// Each count lives in the component that owns it, as a plain member:
// TemplateCache and SessionManager keep relaxed atomics, BudgetGovernor
// keeps per-tenant tallies under its mutex, and ProtectionService counts
// submissions. stats() copies them into these plain values, so the counts
// stay exact per instance whichever telemetry::Registry the components
// record their events into. Callers diff snapshots across time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aegis::service {

/// TemplateCache counters. Invariants (every counter is exact, not sampled):
///   * `lookups == hits + misses`;
///   * `warm_starts` counts misses resolved AGAINST the on-disk store (a
///     persisted file existed and a load was attempted);
///   * `failed_loads` counts those attempts that failed to deserialize
///     (stale/corrupt file) and fell back to a fresh analysis;
///   * `analyses_run` counts offline-pipeline invocations, including ones
///     that threw (the entry is evicted, but the pipeline did run).
/// Hence every single-flight leader either loads successfully or analyzes:
///   `analyses_run == misses - warm_starts + failed_loads`  (exactly).
struct TemplateCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;         // served from memory (incl. in-flight joins)
  std::size_t misses = 0;       // this caller became the single-flight leader
  std::size_t warm_starts = 0;  // leader found a persisted file and loaded it
  std::size_t failed_loads = 0; // ...but the load failed; analysis fallback
  std::size_t analyses_run = 0; // leader ran the offline pipeline

  double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Per-tenant privacy-budget view (BudgetGovernor).
struct TenantBudgetStats {
  std::uint64_t tenant_id = 0;
  std::size_t releases = 0;        // DP releases consumed so far
  double basic_epsilon = 0.0;      // sequential-composition spend
  double advanced_epsilon = 0.0;   // advanced-composition spend
  double epsilon_cap = 0.0;
  // Lifetime decision tallies, kept by the governor per tenant.
  std::size_t admitted = 0;        // windows granted at full granularity
  std::size_t degraded = 0;        // windows granted at coarser granularity
  std::size_t refused = 0;         // windows rejected (budget exhausted)
};

struct ServiceStats {
  std::size_t sessions_submitted = 0;
  std::size_t sessions_started = 0;    // dispatched onto the session pool
  std::size_t sessions_active = 0;     // currently executing
  std::size_t sessions_completed = 0;  // ran to the end of their window
  std::size_t sessions_refused = 0;    // rejected by admission control
  std::size_t sessions_degraded = 0;   // ran at coarser granularity
  std::size_t queue_depth = 0;         // submissions awaiting dispatch
  std::uint64_t noise_draws = 0;       // summed over completed sessions
  TemplateCacheStats cache;
  std::vector<TenantBudgetStats> tenants;  // sorted by tenant_id
};

}  // namespace aegis::service
