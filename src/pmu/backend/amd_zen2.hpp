// AMD Zen 2 family backend: EPYC 7252 and EPYC 7313P (paper Table I — 1903
// events each, 0 differing within the family).
#pragma once

#include "pmu/backend/backend.hpp"

namespace aegis::pmu::backend {

class AmdZen2Backend final : public PmuBackend {
 public:
  explicit AmdZen2Backend(isa::CpuModel model);

  std::string_view id() const noexcept override { return "amd-zen2"; }

  /// The paper's four Section III-B attack events, verbatim — pinned equal
  /// to pmu::kAmdAttackEvents so the seceval/bench defaults cannot drift.
  std::vector<std::string_view> attack_event_names() const override;

  std::string_view sku_override(std::string_view name) const noexcept override;
};

}  // namespace aegis::pmu::backend
