#include "service/budget_governor.hpp"

#include <cstring>

#include "telemetry/registry.hpp"

namespace aegis::service {

namespace {

std::size_t releases_for(std::size_t slices, std::size_t granularity) {
  return (slices + granularity - 1) / granularity;
}

/// Outcome code carried in kAdmission wide events (field `a`): the
/// Admission value.
std::uint64_t outcome_code(Admission a) noexcept {
  return static_cast<std::uint64_t>(a);
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

BudgetGovernor::BudgetGovernor(GovernorConfig config)
    : config_(config),
      telemetry_(&telemetry::resolve(config.telemetry)),
      decision_event_(telemetry_->recorder().event_handle(
          "governor.decision", telemetry::WideEventType::kAdmission)) {}

BudgetGovernor::Tenant& BudgetGovernor::tenant_for(std::uint64_t tenant_id) {
  auto [it, inserted] = tenants_.try_emplace(tenant_id);
  Tenant& tenant = it->second;
  if (inserted) tenant.epsilon_cap = config_.default_epsilon_cap;
  return tenant;
}

void BudgetGovernor::set_tenant_cap(std::uint64_t tenant_id,
                                    double epsilon_cap) {
  std::lock_guard lock(mu_);
  tenant_for(tenant_id).epsilon_cap = epsilon_cap;
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
    record_decision(tenant_id, tenant, decision);
    return decision;
  }

  for (std::size_t g = 1; g <= config_.max_granularity; g *= 2) {
    const std::size_t releases = releases_for(slices, g);
    const double after = tenant.accountant.advanced_epsilon_if(
        per_slice_epsilon, releases, config_.delta);
    if (after <= tenant.epsilon_cap) {
      tenant.accountant.record_releases(per_slice_epsilon, releases);
      decision.outcome = g == 1 ? Admission::kAdmit : Admission::kDegrade;
      decision.granularity = g;
      decision.releases = releases;
      decision.epsilon_after = after;
      record_decision(tenant_id, tenant, decision);
      return decision;
    }
  }

  decision.outcome = Admission::kRefuse;
  decision.granularity = 0;
  decision.releases = 0;
  decision.epsilon_after = tenant.accountant.advanced_epsilon(config_.delta);
  record_decision(tenant_id, tenant, decision);
  return decision;
}

// Caller holds mu_. One clock read and one wide event per decision, in
// submission order.
void BudgetGovernor::record_decision(std::uint64_t tenant_id, Tenant& tenant,
                                     const AdmissionDecision& decision) {
  switch (decision.outcome) {
    case Admission::kAdmit:
      ++tenant.admitted;
      break;
    case Admission::kDegrade:
      ++tenant.degraded;
      break;
    case Admission::kRefuse:
      ++tenant.refused;
      break;
  }
  decision_event_.record(
      telemetry_->now_ns(), outcome_code(decision.outcome),
      decision.granularity, decision.releases,
      double_bits(decision.epsilon_after),
      static_cast<std::uint32_t>(tenant_id));
}

TenantBudgetStats BudgetGovernor::snapshot(std::uint64_t id,
                                           const Tenant& t) const {
  TenantBudgetStats stats;
  stats.tenant_id = id;
  stats.releases = t.accountant.releases();
  stats.basic_epsilon = t.accountant.basic_epsilon();
  stats.advanced_epsilon = t.accountant.advanced_epsilon(config_.delta);
  stats.epsilon_cap = t.epsilon_cap;
  stats.admitted = t.admitted;
  stats.degraded = t.degraded;
  stats.refused = t.refused;
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
