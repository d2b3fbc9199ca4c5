// BudgetGovernor: per-tenant privacy-budget admission control.
//
// Each protected monitoring window of T slices at per-slice epsilon eps
// consumes T eps-DP releases (Laplace composes per slice, Theorem 1). A
// tenant carries a lifetime advanced-composition epsilon cap; before a
// session runs, the governor decides:
//   * ADMIT   — the full-granularity window (T releases) fits the cap;
//   * DEGRADE — it does not, but a coarser noise-refresh granularity g in
//     {2, 4, 8, ...} (ceil(T/g) releases) does: the session still runs,
//     with weaker temporal resolution of its DP noise refresh;
//   * REFUSE  — even the coarsest allowed granularity would cross the cap:
//     the session is rejected and the tenant must wait for a new budget
//     grant (reset_tenant) or accept running unprotected out-of-band.
// Admitted/degraded windows are reserved IMMEDIATELY (the accountant
// records the releases at decision time), so concurrent sessions of one
// tenant can never jointly overshoot the cap. Decisions for a given
// request sequence are deterministic: the governor is driven in submission
// order by the SessionManager, never from worker threads.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "dp/accountant.hpp"
#include "service/service_stats.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace aegis::telemetry {
class Registry;
class BudgetForecaster;
}

namespace aegis::service {

enum class Admission : unsigned char { kAdmit, kDegrade, kRefuse };

const char* to_string(Admission a) noexcept;

struct AdmissionDecision {
  Admission outcome = Admission::kRefuse;
  /// Noise-refresh period in slices (1 = every slice). Meaningful for
  /// kAdmit (always 1) and kDegrade (> 1).
  std::size_t granularity = 1;
  /// DP releases this grant consumes (= ceil(slices / granularity)).
  std::size_t releases = 0;
  /// Tenant's advanced-composition epsilon after the grant is recorded.
  double epsilon_after = 0.0;
};

struct GovernorConfig {
  double default_epsilon_cap = 8.0;  // lifetime advanced-composition cap
  double delta = 1e-6;               // advanced-composition slack
  std::size_t max_granularity = 64;  // coarsest degrade step offered
  /// Sink for the admission wide events and per-tenant metrics (null =
  /// telemetry::Registry::global()). TenantBudgetStats reads the ε spend from
  /// the governor's own accountants and the outcome tallies from the
  /// per-tenant counters.
  telemetry::Registry* telemetry = nullptr;
  /// Online ε-exhaustion forecaster (telemetry/anomaly.hpp). When set, the
  /// governor feeds it every decision AND consults it for PROACTIVE
  /// degradation: a tenant whose forecast exhaustion ETA falls inside
  /// `proactive_horizon_ns` starts the granularity ladder at 2 instead of
  /// 1, spreading the remaining budget over more windows before the
  /// accountant would force a harsher degrade (ROADMAP item 5). Null, or a
  /// zero horizon, leaves admission byte-for-byte unchanged.
  telemetry::BudgetForecaster* forecaster = nullptr;
  std::uint64_t proactive_horizon_ns = 0;
  /// Dump the armed flight recorder when a tenant is REFUSED (a budget
  /// gate breach is exactly the "what led up to this" moment the recorder
  /// exists for). No-op when no recorder is armed.
  bool dump_on_refuse = false;
};

class BudgetGovernor {
 public:
  explicit BudgetGovernor(GovernorConfig config = {});

  /// Overrides the epsilon cap for one tenant (before or between windows).
  void set_tenant_cap(std::uint64_t tenant_id, double epsilon_cap);

  /// Decides and (for admit/degrade) immediately reserves a monitoring
  /// window of `slices` slices at `per_slice_epsilon`. Thread-safe, but
  /// decision sequences are only deterministic if calls for a tenant set
  /// arrive in a deterministic order.
  AdmissionDecision request_window(std::uint64_t tenant_id, std::size_t slices,
                                   double per_slice_epsilon);

  /// Remaining advanced-composition budget for the tenant.
  double remaining(std::uint64_t tenant_id) const;

  /// Forgets a tenant's spend (a new budget grant / key rotation).
  void reset_tenant(std::uint64_t tenant_id);

  TenantBudgetStats usage(std::uint64_t tenant_id) const;
  std::vector<TenantBudgetStats> all_usage() const;  // sorted by tenant id

  const GovernorConfig& config() const noexcept { return config_; }

 private:
  struct Tenant {
    dp::PrivacyAccountant accountant;
    double epsilon_cap = 0.0;
    // Labeled metrics registered when the tenant first appears; decisions
    // then only touch lock-free handles. The tallies count every decision
    // over the tenant's lifetime (reset_tenant forgets spend, not history).
    telemetry::Counter admitted;
    telemetry::Counter degraded;
    telemetry::Counter refused;
    telemetry::Gauge epsilon_gauge;
    telemetry::Gauge remaining_gauge;
  };

  /// Looks up or creates the tenant, registering its gauges on creation.
  /// Caller holds mu_.
  Tenant& tenant_for(std::uint64_t tenant_id);

  /// Stamps the decision (or the budget reset) from the registry clock,
  /// records it as a kAdmission wide event, feeds the forecaster and
  /// refreshes the tenant's gauges. Caller holds mu_.
  void record_decision(std::uint64_t tenant_id, const Tenant& tenant,
                       const AdmissionDecision& decision, bool reset = false);

  TenantBudgetStats snapshot(std::uint64_t id, const Tenant& t) const;

  GovernorConfig config_;
  telemetry::Registry* telemetry_;  // resolved (never null)
  /// Admission wide events, resolved once (wait-free record path).
  telemetry::EventHandle decision_event_;
  telemetry::Counter proactive_degrades_;
  // aegis-lint: lock-level(15, noblock)
  mutable std::mutex mu_;
  std::map<std::uint64_t, Tenant> tenants_;  // ordered for stable snapshots
  std::uint64_t next_seq_ = 0;               // decision sequence number
};

}  // namespace aegis::service
