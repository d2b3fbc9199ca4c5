#include "telemetry/anomaly.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "telemetry/registry.hpp"

namespace aegis::telemetry {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string tenant_metric(const char* base, std::uint64_t tenant_id) {
  return std::string(base) + "{tenant=\"" + std::to_string(tenant_id) + "\"}";
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

BudgetForecaster::BudgetForecaster(ForecasterConfig config, Registry* telemetry)
    : config_(config), telemetry_(&resolve(telemetry)) {
  if (config_.window < 2) config_.window = 2;
  if (config_.min_points < 2) config_.min_points = 2;
  alert_event_ = telemetry_->recorder().event_handle("anomaly.budget",
                                                     WideEventType::kAlert);
  alerts_ = telemetry_->metrics().counter(
      "aegis_budget_exhaustion_alerts_total");
  telemetry_->metrics().set_help(
      "aegis_tenant_eta_ns",
      "Forecast ns until the tenant's advanced-composition epsilon crosses "
      "its cap (least-squares slope over the admission window)");
  telemetry_->metrics().set_help("aegis_tenant_eps_burn_per_s",
                                 "Forecast epsilon burn rate per second");
  telemetry_->metrics().set_help(
      "aegis_budget_exhaustion_alerts_total",
      "kBudgetExhaustionSoon alerts (forecast ETA fell inside the horizon)");
}

BudgetForecast BudgetForecaster::fit(const TenantSeries& series) const {
  BudgetForecast fc;
  fc.eta_ns = kInf;
  const std::size_t n = series.points.size();
  if (n < config_.min_points) return fc;
  // Least squares on (t - t0, epsilon_after); t is re-based so the double
  // sums keep precision for large tick counts.
  const double t0 = static_cast<double>(series.points.front().t_ns);
  double sum_t = 0.0, sum_e = 0.0, sum_tt = 0.0, sum_te = 0.0;
  for (const BudgetEvent& p : series.points) {
    const double t = static_cast<double>(p.t_ns) - t0;
    const double e = p.epsilon_after;
    sum_t += t;
    sum_e += e;
    sum_tt += t * t;
    sum_te += t * e;
  }
  const double nd = static_cast<double>(n);
  const double var = sum_tt - sum_t * sum_t / nd;
  if (var <= 0.0) return fc;  // all observations at one timestamp
  fc.valid = true;
  fc.slope_eps_per_ns = (sum_te - sum_t * sum_e / nd) / var;
  fc.epsilon = series.points.back().epsilon_after;
  fc.cap = series.points.back().epsilon_cap;
  if (fc.slope_eps_per_ns > 0.0 && fc.cap > fc.epsilon) {
    fc.eta_ns = (fc.cap - fc.epsilon) / fc.slope_eps_per_ns;
  } else if (fc.slope_eps_per_ns > 0.0) {
    fc.eta_ns = 0.0;  // already at/over the cap
  }
  return fc;
}

void BudgetForecaster::ingest(const BudgetEvent& event) {
  BudgetForecast fc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = tenants_.try_emplace(event.tenant_id);
    TenantSeries& series = it->second;
    if (inserted) {
      // Registration takes the metrics lock (level 52) above ours (17):
      // ascending, lock-order clean even when driven under the governor's
      // level-15 lock.
      series.eta_gauge = telemetry_->metrics().gauge(
          tenant_metric("aegis_tenant_eta_ns", event.tenant_id));
      series.burn_gauge = telemetry_->metrics().gauge(
          tenant_metric("aegis_tenant_eps_burn_per_s", event.tenant_id));
      series.eta_gauge.set(kInf);
    }
    if (event.outcome == "reset") {
      // A fresh budget grant restarts the burn-down; yesterday's slope
      // would poison the new forecast.
      series.points.clear();
      series.eta_gauge.set(kInf);
      series.burn_gauge.set(0.0);
      return;
    }
    series.points.push_back(event);
    while (series.points.size() > config_.window) series.points.pop_front();
    fc = fit(series);
    if (fc.valid) {
      series.eta_gauge.set(fc.eta_ns);
      series.burn_gauge.set(fc.slope_eps_per_ns * 1e9);
    }
  }
  if (config_.alert_horizon_ns > 0 && fc.valid &&
      fc.eta_ns < static_cast<double>(config_.alert_horizon_ns)) {
    alerts_.inc();
    alert_event_.record(
        event.t_ns, static_cast<std::uint64_t>(AlertKind::kBudgetExhaustionSoon),
        double_bits(fc.eta_ns), event.seq, double_bits(fc.epsilon),
        static_cast<std::uint32_t>(event.tenant_id));
  }
}

BudgetForecast BudgetForecaster::forecast(std::uint64_t tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant_id);
  BudgetForecast fc;
  fc.eta_ns = kInf;
  if (it == tenants_.end()) return fc;
  return fit(it->second);
}

AttackProbabilityMonitor::AttackProbabilityMonitor(AttackMonitorConfig config,
                                                   Registry* telemetry)
    : config_(std::move(config)),
      telemetry_(&resolve(telemetry)),
      attack_events_(config_.attack_events) {
  alert_event_ = telemetry_->recorder().event_handle("anomaly.attack",
                                                     WideEventType::kAlert);
  alerts_ = telemetry_->metrics().counter("aegis_attack_alerts_total");
  sessions_scored_ =
      telemetry_->metrics().counter("aegis_attack_sessions_scored_total");
  telemetry_->metrics().set_help(
      "aegis_attack_probability",
      "Logistic attack-likelihood score of the tenant's latest session "
      "(event-set overlap + read cadence + stepping burstiness)");
  telemetry_->metrics().set_help(
      "aegis_attack_alerts_total",
      "Sessions whose attack probability crossed the alert threshold");
}

void AttackProbabilityMonitor::set_attack_events(
    std::vector<std::uint32_t> attack_events) {
  std::lock_guard<std::mutex> lock(mu_);
  attack_events_ = std::move(attack_events);
}

std::vector<std::uint32_t> AttackProbabilityMonitor::attack_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attack_events_;
}

AttackScore AttackProbabilityMonitor::score(
    const SessionFeatures& features) const {
  AttackScore s;
  // Overlap of the session's monitored set with the vendor attack set —
  // the one feature a real attacker cannot avoid (it must watch the
  // leaking events to learn anything).
  std::size_t hits = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::uint32_t ev : features.monitored_events) {
      if (std::find(attack_events_.begin(), attack_events_.end(), ev) !=
          attack_events_.end()) {
        ++hits;
      }
    }
  }
  const std::size_t denom = std::max<std::size_t>(
      features.monitored_events.size(), 1);
  s.overlap = static_cast<double>(hits) / static_cast<double>(denom);
  // Periodic sampling (cv -> 0) is attacker-like; bursty ad-hoc reads are
  // benign. Map cv in [0, inf) to cadence in (0, 1].
  const double cv = std::max(features.read_gap_cv, 0.0);
  s.cadence = 1.0 / (1.0 + cv);
  s.burst = std::clamp(features.stepped_fraction, 0.0, 1.0);
  // Logistic over hand-set weights. The calibration test pins this against
  // the committed seceval frontier profiles, so a weight change that
  // un-separates attackers from benign readers fails CI.
  const double z = 3.5 * s.overlap + 1.5 * s.cadence + 1.0 * s.burst - 2.8;
  s.probability = 1.0 / (1.0 + std::exp(-z));
  s.alert = s.probability >= config_.threshold;
  return s;
}

AttackScore AttackProbabilityMonitor::ingest(const SessionFeatures& features) {
  const AttackScore s = score(features);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = tenant_gauges_.try_emplace(features.tenant_id);
    if (inserted) {
      it->second = telemetry_->metrics().gauge(
          tenant_metric("aegis_attack_probability", features.tenant_id));
    }
    it->second.set(s.probability);
  }
  sessions_scored_.inc();
  if (s.alert) {
    alerts_.inc();
    alert_event_.record(features.slices,
                        static_cast<std::uint64_t>(AlertKind::kAttackSuspected),
                        double_bits(s.probability), double_bits(s.overlap),
                        double_bits(s.cadence),
                        static_cast<std::uint32_t>(features.tenant_id));
    if (config_.dump_on_alert) {
      telemetry_->recorder().trigger_armed_dump();
    }
  }
  return s;
}

}  // namespace aegis::telemetry
