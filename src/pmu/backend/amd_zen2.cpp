#include "pmu/backend/amd_zen2.hpp"

#include <stdexcept>

namespace aegis::pmu::backend {

AmdZen2Backend::AmdZen2Backend(isa::CpuModel model) : PmuBackend(model) {
  if (isa::vendor_of(model) != isa::Vendor::kAmd) {
    throw std::invalid_argument("AmdZen2Backend: not an AMD model");
  }
}

std::vector<std::string_view> AmdZen2Backend::attack_event_names() const {
  return {kAmdAttackEvents.begin(), kAmdAttackEvents.end()};
}

std::string_view AmdZen2Backend::sku_override(
    std::string_view name) const noexcept {
  if (name == "INSTRUCTIONS") return "RETIRED_INSTRUCTIONS";
  if (name == "CPU-CYCLES") return "CYCLES_NOT_IN_HALT";
  if (name == "BRANCH-INSTRUCTIONS") return "RETIRED_BRANCH_INSTRUCTIONS";
  if (name == "BRANCH-MISSES") return "RETIRED_BRANCH_MISPREDICTED";
  return {};
}

}  // namespace aegis::pmu::backend
