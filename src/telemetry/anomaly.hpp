// Online anomaly layer on top of the telemetry plane (ROADMAP items 3/5):
//
//   * BudgetForecaster — per-tenant ε-exhaustion ETA from the slope of the
//     (t_ns, epsilon_after) series of the governor's admission decisions.
//     Exposed as gauges (aegis_tenant_eta_ns / aegis_tenant_eps_burn_per_s)
//     and consumed by BudgetGovernor as a proactive-degradation hint: a
//     tenant forecast to exhaust inside the configured horizon is degraded
//     one granularity step BEFORE the accountant forces it, trading
//     temporal resolution early for admission continuity later.
//   * AttackProbabilityMonitor — online score of how attacker-like a
//     session's counter-read behaviour is, from event-set overlap with the
//     backend's attack set, read-cadence regularity and single-stepping
//     burstiness (the features the seceval frontier attackers actually
//     exhibit; thresholds are calibrated against those profiles by test).
//
// Both emit kAlert wide events into the flight recorder and Prometheus
// metrics. Neither draws randomness nor perturbs any guarded computation,
// so attaching them preserves the fleet-vs-standalone bit-identity
// contract.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace aegis::telemetry {

class Registry;

/// Alert kinds carried in kAlert wide events (field `a`).
enum class AlertKind : std::uint64_t {
  kBudgetExhaustionSoon = 1,
  kAttackSuspected = 2,
};

/// One admission decision (admit / degrade / refuse) or budget reset, as
/// BudgetGovernor hands it to the forecaster. The governor also records it
/// as a kAdmission wide event; nothing keeps a copy.
struct BudgetEvent {
  /// Decision sequence number (stable tiebreak for equal timestamps).
  std::uint64_t seq = 0;
  std::uint64_t t_ns = 0;
  std::uint64_t tenant_id = 0;
  /// "admit" | "degrade" | "refuse" | "reset".
  std::string outcome;
  /// Granularity granted for this window (0 for refuse/reset).
  std::uint32_t granularity = 0;
  /// Releases charged by this decision (0 for refuse/reset).
  std::uint64_t releases = 0;
  /// Advanced-composition ε after the decision was applied.
  double epsilon_after = 0.0;
  double epsilon_cap = 0.0;
};

struct BudgetForecast {
  bool valid = false;
  /// Least-squares dε/dt over the observation window (per nanosecond).
  double slope_eps_per_ns = 0.0;
  double epsilon = 0.0;  // last observed advanced-composition ε
  double cap = 0.0;
  /// Nanoseconds from the last observation until ε crosses the cap.
  /// Infinity when the slope is non-positive or too few points arrived.
  double eta_ns = 0.0;
};

struct ForecasterConfig {
  /// Sliding window of admission events per tenant the slope fits over.
  std::size_t window = 32;
  /// Minimum points before a forecast is considered valid.
  std::size_t min_points = 3;
  /// Emit a kBudgetExhaustionSoon alert when eta_ns falls below this
  /// horizon (0 disables alerting; forecasts still compute).
  std::uint64_t alert_horizon_ns = 0;
};

/// Online per-tenant ε-exhaustion forecaster. Observed events arrive from
/// BudgetGovernor::record_decision (submission order, under the governor's
/// level-15 lock — this class's lock sits above it at level 17, below the
/// metrics registry it publishes gauges to).
class BudgetForecaster {
 public:
  /// `telemetry` null resolves to Registry::global(). Gauges and alert
  /// events land in that registry's metrics plane / flight recorder.
  explicit BudgetForecaster(ForecasterConfig config = {},
                            Registry* telemetry = nullptr);
  BudgetForecaster(const BudgetForecaster&) = delete;
  BudgetForecaster& operator=(const BudgetForecaster&) = delete;

  /// Feeds one admission decision. "reset" events clear the tenant's
  /// window (a new budget grant restarts the burn-down). Named `ingest`
  /// (not `observe`/`record`) so this allocating method never joins the
  /// name groups of the wait-free hot-path recording ops for the
  /// interprocedural linter.
  void ingest(const BudgetEvent& event);

  BudgetForecast forecast(std::uint64_t tenant_id) const;

  std::uint64_t alerts() const noexcept { return alerts_.value(); }

 private:
  struct TenantSeries {
    std::deque<BudgetEvent> points;  // last `window` non-reset events
    Gauge eta_gauge;
    Gauge burn_gauge;
  };

  /// Caller holds mu_. Fits the window; returns an invalid forecast when
  /// under min_points or the slope is non-positive.
  BudgetForecast fit(const TenantSeries& series) const;

  ForecasterConfig config_;
  Registry* telemetry_;
  EventHandle alert_event_;
  Counter alerts_;
  // aegis-lint: lock-level(17, noblock)
  mutable std::mutex mu_;
  std::map<std::uint64_t, TenantSeries> tenants_;
};

/// Per-session counter-access features, computed by the caller (the
/// SessionManager knows the template's monitored event set; the seceval
/// harness knows its attackers' stepping behaviour).
struct SessionFeatures {
  std::uint64_t tenant_id = 0;
  /// Events the session's host-side monitor reads each slice.
  std::vector<std::uint32_t> monitored_events;
  /// Coefficient of variation of inter-read gaps (0 = perfectly periodic,
  /// the signature of a sampling attacker; benign readers are bursty).
  double read_gap_cv = 1.0;
  /// Fraction of slices advanced via single-stepping (SEV-Step style).
  double stepped_fraction = 0.0;
  std::uint64_t slices = 0;
};

struct AttackScore {
  double probability = 0.0;  // logistic score in [0, 1]
  bool alert = false;
  // Feature values that produced the score (for dashboards/forensics).
  double overlap = 0.0;
  double cadence = 0.0;
  double burst = 0.0;
};

struct AttackMonitorConfig {
  /// The vendor's attack-relevant event set (PmuBackend::attack_events()).
  std::vector<std::uint32_t> attack_events;
  /// Alert threshold on the logistic score. 0.5 separates the committed
  /// seceval frontier attacker profiles (static/adaptive/fusion/stepping,
  /// all >= 0.6) from benign mixed-event readers (< 0.25); the calibration
  /// test pins both sides.
  double threshold = 0.5;
  /// When true, an alert also triggers the armed flight-recorder dump
  /// (forensic snapshot of the instants before the detection).
  bool dump_on_alert = false;
};

/// Deterministic online attack-probability scorer. score() is pure;
/// ingest() also publishes gauges, bumps the alert counter and emits a
/// kAttackSuspected wide event when the threshold is crossed.
class AttackProbabilityMonitor {
 public:
  explicit AttackProbabilityMonitor(AttackMonitorConfig config = {},
                                    Registry* telemetry = nullptr);
  AttackProbabilityMonitor(const AttackProbabilityMonitor&) = delete;
  AttackProbabilityMonitor& operator=(const AttackProbabilityMonitor&) = delete;

  AttackScore score(const SessionFeatures& features) const;
  AttackScore ingest(const SessionFeatures& features);

  /// Replaces the attack-relevant event set — the service calls this once
  /// the PMU backend (and with it PmuBackend::attack_events()) is known,
  /// which is after the monitor is constructed. Thread-safe; scores
  /// computed after the call use the new set.
  void set_attack_events(std::vector<std::uint32_t> attack_events);
  std::vector<std::uint32_t> attack_events() const;

  std::uint64_t alerts() const noexcept { return alerts_.value(); }
  const AttackMonitorConfig& config() const noexcept { return config_; }

 private:
  AttackMonitorConfig config_;
  Registry* telemetry_;
  EventHandle alert_event_;
  Counter alerts_;
  Counter sessions_scored_;
  // aegis-lint: lock-level(18, noblock)
  mutable std::mutex mu_;
  /// Seeded from config_.attack_events; lives under mu_ so
  /// set_attack_events can swap it after construction (config_ itself stays
  /// immutable — config().attack_events reflects the construction-time
  /// value, attack_events() the live set).
  std::vector<std::uint32_t> attack_events_;
  std::map<std::uint64_t, Gauge> tenant_gauges_;
};

}  // namespace aegis::telemetry
