// Intel Xeon E5 family backend: E5-1650 and E5-4617 (paper Table I — 6166
// vs 6172 events, exactly 14 differing within the family).
#pragma once

#include "pmu/backend/backend.hpp"

namespace aegis::pmu::backend {

class IntelXeonE5Backend final : public PmuBackend {
 public:
  explicit IntelXeonE5Backend(isa::CpuModel model);

  std::string_view id() const noexcept override { return "intel-xeon-e5"; }

  /// The Xeon E5 defaults mirroring the paper's AMD picks (uops, loads,
  /// L1 activity, LLC refills), led by the event the paper itself names
  /// for Intel: MEM_LOAD_UOPS_RETIRED:L1_HIT (Section VIII extension).
  std::vector<std::string_view> attack_event_names() const override;

  std::string_view sku_override(std::string_view name) const noexcept override;
};

}  // namespace aegis::pmu::backend
