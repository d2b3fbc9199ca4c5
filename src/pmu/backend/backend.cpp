#include "pmu/backend/backend.hpp"

#include <array>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace aegis::pmu::backend {

namespace {

struct Family {
  std::string_view id;
  std::array<std::string_view, EventDatabase::kNumCounters> attack_events;
};

constexpr Family kFamilies[] = {
    // AMD Zen 2: EPYC 7252 and EPYC 7313P (Table I — 1903 events each, 0
    // differing). The paper's four Section III-B attack events, verbatim.
    {"amd-zen2", kAmdAttackEvents},
    // Intel Xeon E5: E5-1650 and E5-4617 (Table I — 6166 vs 6172 events,
    // 14 differing). The equivalents of the AMD picks (uops, loads, L1
    // activity, LLC refills), led by the event the paper itself names for
    // Intel (Section VIII extension).
    {"intel-xeon-e5",
     {"MEM_LOAD_UOPS_RETIRED:L1_HIT", "UOPS_RETIRED:ALL",
      "MEM_UOPS_RETIRED:ALL_LOADS", "LONGEST_LAT_CACHE:MISS"}},
};

const Family& family_for(isa::CpuModel model) {
  return isa::vendor_of(model) == isa::Vendor::kAmd ? kFamilies[0]
                                                    : kFamilies[1];
}

constexpr isa::CpuModel kModels[] = {
    isa::CpuModel::kIntelXeonE5_1650, isa::CpuModel::kIntelXeonE5_4617,
    isa::CpuModel::kAmdEpyc7252, isa::CpuModel::kAmdEpyc7313P};

}  // namespace

PmuBackend::PmuBackend(isa::CpuModel model)
    // The backend is a VIEW over the unchanged generator: same seed, same
    // draw order, same bytes as every pre-backend call site produced.
    // src/pmu/backend/ is the one sanctioned generate() caller — the gate
    // disables the backend-registry rule for this directory, so no
    // suppression comment is needed (one here would be flagged as stale).
    : db_(EventDatabase::generate(model)), id_(family_for(model).id) {
  for (std::string_view name : family_for(model).attack_events) {
    const auto id = db_.find(name);
    if (!id) {
      throw std::logic_error("PmuBackend: attack event '" + std::string(name) +
                             "' missing from " +
                             std::string(isa::to_string(model)) +
                             " database");
    }
    attack_events_.push_back(*id);
  }
}

// One lazily built singleton per model (thread-safe magic statics).
const PmuBackend& backend_for(isa::CpuModel model) {
  switch (model) {
    case isa::CpuModel::kIntelXeonE5_1650: {
      static const PmuBackend b(isa::CpuModel::kIntelXeonE5_1650);
      return b;
    }
    case isa::CpuModel::kIntelXeonE5_4617: {
      static const PmuBackend b(isa::CpuModel::kIntelXeonE5_4617);
      return b;
    }
    case isa::CpuModel::kAmdEpyc7252: {
      static const PmuBackend b(isa::CpuModel::kAmdEpyc7252);
      return b;
    }
    case isa::CpuModel::kAmdEpyc7313P:
      break;
  }
  static const PmuBackend b(isa::CpuModel::kAmdEpyc7313P);
  return b;
}

std::string_view backend_id(isa::CpuModel model) {
  return family_for(model).id;
}

std::optional<isa::CpuModel> parse_cpu_model(std::string_view text) noexcept {
  if (text == "amd") return isa::CpuModel::kAmdEpyc7252;
  if (text == "intel") return isa::CpuModel::kIntelXeonE5_1650;
  for (isa::CpuModel m : kModels) {
    if (text == isa::to_token(m) || text == isa::to_string(m)) return m;
  }
  return std::nullopt;
}

isa::CpuModel model_from_env(isa::CpuModel fallback) {
  const char* env = std::getenv("AEGIS_CPU");
  if (env == nullptr || *env == '\0') return fallback;
  if (const auto model = parse_cpu_model(env)) return *model;
  throw std::invalid_argument("AEGIS_CPU='" + std::string(env) +
                              "' is not a CPU selector (amd, intel, a model "
                              "token or a full model name)");
}

}  // namespace aegis::pmu::backend
