#include "pmu/backend/backend.hpp"

#include <stdexcept>

namespace aegis::pmu::backend {

PmuBackend::PmuBackend(isa::CpuModel model)
    // The backend is a VIEW over the unchanged generator: same seed, same
    // draw order, same bytes as every pre-backend call site produced.
    // src/pmu/backend/ is the one sanctioned generate() caller — the gate
    // disables the backend-registry rule for this directory, so no
    // suppression comment is needed (one here would be flagged as stale).
    : db_(EventDatabase::generate(model)) {}

PmuBackend::~PmuBackend() = default;

std::vector<std::uint32_t> PmuBackend::attack_events() const {
  std::vector<std::uint32_t> ids;
  for (std::string_view name : attack_event_names()) {
    const auto id = db_.find(name);
    if (!id) {
      throw std::logic_error("PmuBackend: attack event '" + std::string(name) +
                             "' missing from " +
                             std::string(isa::to_string(model())) +
                             " database");
    }
    ids.push_back(*id);
  }
  return ids;
}

std::string_view PmuBackend::sku_override(
    std::string_view /*name*/) const noexcept {
  return {};
}

std::optional<std::uint32_t> PmuBackend::resolve(
    std::string_view name) const noexcept {
  if (const auto id = db_.find(name)) return id;
  if (const std::string_view alias = sku_override(name); !alias.empty()) {
    return db_.find(alias);
  }
  return std::nullopt;
}

}  // namespace aegis::pmu::backend
