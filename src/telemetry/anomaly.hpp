// Online anomaly layer on top of the telemetry plane: the
// AttackProbabilityMonitor, an online score of how attacker-like a
// session's counter-read behaviour is, from event-set overlap with the
// backend's attack set, read-cadence regularity and single-stepping
// burstiness (the features the seceval frontier attackers actually exhibit;
// thresholds are calibrated against those profiles by test).
//
// It emits kAlert wide events into the flight recorder and per-tenant
// gauges. It draws no randomness and perturbs no guarded computation, so
// attaching it preserves the fleet-vs-standalone bit-identity contract.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace aegis::telemetry {

class Registry;

/// Alert kinds carried in kAlert wide events (field `a`).
enum class AlertKind : std::uint64_t {
  kAttackSuspected = 2,
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
