#include "service/budget_governor.hpp"

#include <cstring>
#include <string>

#include "telemetry/anomaly.hpp"
#include "telemetry/registry.hpp"

namespace aegis::service {

namespace {

std::size_t releases_for(std::size_t slices, std::size_t granularity) {
  return (slices + granularity - 1) / granularity;
}

std::string tenant_metric(const char* base, std::uint64_t tenant_id) {
  return std::string(base) + "{tenant=\"" + std::to_string(tenant_id) + "\"}";
}

/// Outcome code carried in kAdmission wide events (field `a`): the
/// Admission value, or kResetCode for a budget reset.
std::uint64_t outcome_code(Admission a) noexcept {
  return static_cast<std::uint64_t>(a);
}

constexpr std::uint64_t kResetCode = 3;

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

const char* to_string(Admission a) noexcept {
  switch (a) {
    case Admission::kAdmit: return "admit";
    case Admission::kDegrade: return "degrade";
    case Admission::kRefuse: return "refuse";
  }
  return "?";
}

BudgetGovernor::BudgetGovernor(GovernorConfig config)
    : config_(config),
      telemetry_(&telemetry::resolve(config.telemetry)),
      decision_event_(telemetry_->recorder().event_handle(
          "governor.decision", telemetry::WideEventType::kAdmission)),
      proactive_degrades_(telemetry_->metrics().counter(
          "aegis_governor_proactive_degrades_total")) {}

BudgetGovernor::Tenant& BudgetGovernor::tenant_for(std::uint64_t tenant_id) {
  auto [it, inserted] = tenants_.try_emplace(tenant_id);
  Tenant& tenant = it->second;
  if (inserted) {
    tenant.epsilon_cap = config_.default_epsilon_cap;
    // Registration takes the registry's level-52 lock while we hold the
    // level-15 governor lock: ascending, so lock-order clean.
    tenant.admitted = telemetry_->metrics().counter(
        tenant_metric("aegis_tenant_admitted_total", tenant_id));
    tenant.degraded = telemetry_->metrics().counter(
        tenant_metric("aegis_tenant_degraded_total", tenant_id));
    tenant.refused = telemetry_->metrics().counter(
        tenant_metric("aegis_tenant_refused_total", tenant_id));
    tenant.epsilon_gauge = telemetry_->metrics().gauge(
        tenant_metric("aegis_tenant_epsilon_advanced", tenant_id));
    tenant.remaining_gauge = telemetry_->metrics().gauge(
        tenant_metric("aegis_tenant_epsilon_remaining", tenant_id));
    tenant.remaining_gauge.set(tenant.epsilon_cap);
  }
  return tenant;
}

void BudgetGovernor::set_tenant_cap(std::uint64_t tenant_id,
                                    double epsilon_cap) {
  std::lock_guard lock(mu_);
  Tenant& tenant = tenant_for(tenant_id);
  tenant.epsilon_cap = epsilon_cap;
  tenant.remaining_gauge.set(
      // aegis-lint: lock-ok(accountant.remaining is EpsilonAccountant::remaining, a pure computation; only the name collides with this method)
      tenant.accountant.remaining(epsilon_cap, config_.delta));
}

AdmissionDecision BudgetGovernor::request_window(std::uint64_t tenant_id,
                                                 std::size_t slices,
                                                 double per_slice_epsilon) {
  std::lock_guard lock(mu_);
  Tenant& tenant = tenant_for(tenant_id);

  AdmissionDecision decision;
  if (slices == 0 || per_slice_epsilon <= 0.0) {
    // A zero-cost window (e.g. the d* mechanism, whose guarantee is
    // series-level and pre-paid) is always admitted at full granularity.
    decision.outcome = Admission::kAdmit;
    decision.epsilon_after = tenant.accountant.advanced_epsilon(config_.delta);
    tenant.admitted.inc();
    record_decision(tenant_id, tenant, decision);
    return decision;
  }

  // Proactive degradation (ROADMAP item 5): when the forecaster predicts
  // this tenant exhausts its cap inside the horizon, start the ladder at
  // granularity 2 — fewer releases per window now, instead of a forced
  // refuse later. The forecast lock (level 17) nests above ours (15).
  std::size_t g_start = 1;
  if (config_.forecaster != nullptr && config_.proactive_horizon_ns > 0) {
    const telemetry::BudgetForecast fc =
        config_.forecaster->forecast(tenant_id);
    if (fc.valid &&
        fc.eta_ns < static_cast<double>(config_.proactive_horizon_ns) &&
        config_.max_granularity >= 2) {
      g_start = 2;
      proactive_degrades_.inc();
    }
  }

  for (std::size_t g = g_start; g <= config_.max_granularity; g *= 2) {
    const std::size_t releases = releases_for(slices, g);
    const double after = tenant.accountant.advanced_epsilon_if(
        per_slice_epsilon, releases, config_.delta);
    if (after <= tenant.epsilon_cap) {
      tenant.accountant.record_releases(per_slice_epsilon, releases);
      decision.outcome = g == 1 ? Admission::kAdmit : Admission::kDegrade;
      decision.granularity = g;
      decision.releases = releases;
      decision.epsilon_after = after;
      (g == 1 ? tenant.admitted : tenant.degraded).inc();
      record_decision(tenant_id, tenant, decision);
      return decision;
    }
  }

  decision.outcome = Admission::kRefuse;
  decision.granularity = 0;
  decision.releases = 0;
  decision.epsilon_after = tenant.accountant.advanced_epsilon(config_.delta);
  tenant.refused.inc();
  record_decision(tenant_id, tenant, decision);
  if (config_.dump_on_refuse) {
    // Budget gate breach: snapshot the flight recorder so forensics can see
    // the admission/span history that led here. No-op unless armed.
    telemetry_->recorder().trigger_armed_dump();
  }
  return decision;
}

// Caller holds mu_ (level 15); the forecaster (17) and metric sinks sit
// above it, so the order is ascending. One clock read, one wide event and
// one forecaster point per decision, all in submission order.
void BudgetGovernor::record_decision(std::uint64_t tenant_id,
                                     const Tenant& tenant,
                                     const AdmissionDecision& decision,
                                     bool reset) {
  telemetry::BudgetEvent event;
  event.seq = next_seq_++;
  event.t_ns = telemetry_->now_ns();
  event.tenant_id = tenant_id;
  event.outcome = reset ? "reset" : to_string(decision.outcome);
  event.granularity = static_cast<std::uint32_t>(decision.granularity);
  event.releases = decision.releases;
  event.epsilon_after = decision.epsilon_after;
  event.epsilon_cap = tenant.epsilon_cap;
  decision_event_.record(
      event.t_ns, reset ? kResetCode : outcome_code(decision.outcome),
      event.granularity, event.releases, double_bits(event.epsilon_after),
      static_cast<std::uint32_t>(tenant_id));
  if (config_.forecaster != nullptr) {
    config_.forecaster->ingest(event);
  }
  tenant.epsilon_gauge.set(decision.epsilon_after);
  tenant.remaining_gauge.set(tenant.epsilon_cap - decision.epsilon_after);
}

double BudgetGovernor::remaining(std::uint64_t tenant_id) const {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) return config_.default_epsilon_cap;
  // aegis-lint: lock-ok(accountant.remaining is EpsilonAccountant::remaining, a pure computation; only the name collides with this method)
  return it->second.accountant.remaining(it->second.epsilon_cap,
                                         config_.delta);
}

void BudgetGovernor::reset_tenant(std::uint64_t tenant_id) {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) return;
  it->second.accountant.reset();
  AdmissionDecision reset;
  reset.granularity = 0;
  record_decision(tenant_id, it->second, reset, /*reset=*/true);
}

TenantBudgetStats BudgetGovernor::snapshot(std::uint64_t id,
                                           const Tenant& t) const {
  TenantBudgetStats stats;
  stats.tenant_id = id;
  stats.releases = t.accountant.releases();
  stats.basic_epsilon = t.accountant.basic_epsilon();
  stats.advanced_epsilon = t.accountant.advanced_epsilon(config_.delta);
  stats.epsilon_cap = t.epsilon_cap;
  stats.admitted = t.admitted.value();
  stats.degraded = t.degraded.value();
  stats.refused = t.refused.value();
  return stats;
}

TenantBudgetStats BudgetGovernor::usage(std::uint64_t tenant_id) const {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    TenantBudgetStats stats;
    stats.tenant_id = tenant_id;
    stats.epsilon_cap = config_.default_epsilon_cap;
    return stats;
  }
  return snapshot(tenant_id, it->second);
}

std::vector<TenantBudgetStats> BudgetGovernor::all_usage() const {
  std::lock_guard lock(mu_);
  std::vector<TenantBudgetStats> all;
  all.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    all.push_back(snapshot(id, tenant));
  }
  return all;
}

}  // namespace aegis::service
