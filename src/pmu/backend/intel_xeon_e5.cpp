#include "pmu/backend/intel_xeon_e5.hpp"

#include <stdexcept>

namespace aegis::pmu::backend {

IntelXeonE5Backend::IntelXeonE5Backend(isa::CpuModel model)
    : PmuBackend(model) {
  if (isa::vendor_of(model) != isa::Vendor::kIntel) {
    throw std::invalid_argument("IntelXeonE5Backend: not an Intel model");
  }
}

std::vector<std::string_view> IntelXeonE5Backend::attack_event_names() const {
  return {
      "MEM_LOAD_UOPS_RETIRED:L1_HIT",
      "UOPS_RETIRED:ALL",
      "MEM_UOPS_RETIRED:ALL_LOADS",
      "LONGEST_LAT_CACHE:MISS",
  };
}

std::string_view IntelXeonE5Backend::sku_override(
    std::string_view name) const noexcept {
  if (name == "INSTRUCTIONS") return "INST_RETIRED:ANY";
  if (name == "BRANCH-INSTRUCTIONS") return "BR_INST_RETIRED:ALL_BRANCHES";
  if (name == "BRANCH-MISSES") return "BR_MISP_RETIRED:ALL_BRANCHES";
  if (name == "CACHE-MISSES") return "LONGEST_LAT_CACHE:MISS";
  return {};
}

}  // namespace aegis::pmu::backend
