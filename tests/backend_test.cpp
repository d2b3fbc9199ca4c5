// PMU backend tests. Two jobs: (1) pin the bit-identity contract — each
// backend is a pure view over the same EventDatabase the seed generated, so
// the golden results cannot move; (2) pin the per-vendor metadata (backend
// ids, attack defaults, Table I cross-SKU differentials) so a backend edit
// is a deliberate re-baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmu/backend/backend.hpp"
#include "pmu/event_database.hpp"

namespace aegis::pmu::backend {
namespace {

using isa::CpuModel;

constexpr CpuModel kAllModels[] = {
    CpuModel::kIntelXeonE5_1650,
    CpuModel::kIntelXeonE5_4617,
    CpuModel::kAmdEpyc7252,
    CpuModel::kAmdEpyc7313P,
};

TEST(Registry, CoversEveryModel) {
  for (CpuModel m : kAllModels) {
    const PmuBackend& b = backend_for(m);
    EXPECT_EQ(b.model(), m);
    EXPECT_FALSE(b.id().empty());
  }
}

TEST(Registry, BackendsAreProcessWideSingletons) {
  for (CpuModel m : kAllModels) {
    EXPECT_EQ(&backend_for(m), &backend_for(m));
    EXPECT_EQ(&backend_for(m).database(), &backend_for(m).database());
  }
}

TEST(Registry, FamilySharesOneBackendId) {
  EXPECT_EQ(backend_id(CpuModel::kAmdEpyc7252), "amd-zen2");
  EXPECT_EQ(backend_id(CpuModel::kAmdEpyc7313P), "amd-zen2");
  EXPECT_EQ(backend_id(CpuModel::kIntelXeonE5_1650), "intel-xeon-e5");
  EXPECT_EQ(backend_id(CpuModel::kIntelXeonE5_4617), "intel-xeon-e5");
  for (CpuModel m : kAllModels) EXPECT_EQ(backend_for(m).id(), backend_id(m));
}

// The load-bearing identity: the backend's database IS the seed's
// database, event for event, byte for byte. Everything downstream (hot
// path, seceval, serialize goldens) rides on this.
TEST(Backend, DatabaseIsBitIdenticalToDirectGeneration) {
  for (CpuModel m : kAllModels) {
    // aegis-lint: event-db-ok(this fixture compares the raw database to
    // the backend view; it must call generate() directly)
    const EventDatabase direct = EventDatabase::generate(m);
    const EventDatabase& viewed = backend_for(m).database();
    ASSERT_EQ(viewed.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      const EventDescriptor& a = direct.events()[i];
      const EventDescriptor& b = viewed.events()[i];
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(a.name, b.name);
      ASSERT_EQ(a.type, b.type);
    }
  }
}

// ---------------------------------------------------------------------------
// Counter topology

TEST(Backend, CounterBudgets) {
  // Paper: 4 programmable core counters on both testbeds.
  EXPECT_EQ(EventDatabase::kNumCounters, 4u);
}

// ---------------------------------------------------------------------------
// Attack-event defaults (satellite 1)

TEST(Backend, AmdAttackDefaultsMatchThePaper) {
  const PmuBackend& b = backend_for(CpuModel::kAmdEpyc7252);
  const std::vector<std::uint32_t> ids = b.attack_events();
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{1764, 1765, 1766, 1767}));
  // Same ids the paper's Section III-B names resolve to directly.
  const char* const kPaperNames[] = {
      "RETIRED_UOPS", "LS_DISPATCH", "MAB_ALLOCATION_BY_PIPE",
      "DATA_CACHE_REFILLS_FROM_SYSTEM"};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto direct = b.database().find(kPaperNames[i]);
    ASSERT_TRUE(direct.has_value()) << kPaperNames[i];
    EXPECT_EQ(ids[i], *direct);
  }
}

TEST(Backend, IntelAttackDefaultsResolvePerSku) {
  const PmuBackend& b = backend_for(CpuModel::kIntelXeonE5_1650);
  ASSERT_EQ(b.attack_events().size(), 4u);
  EXPECT_EQ(b.database().by_id(b.attack_events()[0]).name,
            "MEM_LOAD_UOPS_RETIRED:L1_HIT");
  // Table I: the two E5 SKUs differ in a handful of events, so the same
  // names land on different ids per SKU.
  EXPECT_EQ(backend_for(CpuModel::kIntelXeonE5_1650).attack_events(),
            (std::vector<std::uint32_t>{2334, 2335, 2337, 2339}));
  EXPECT_EQ(backend_for(CpuModel::kIntelXeonE5_4617).attack_events(),
            (std::vector<std::uint32_t>{2330, 2331, 2333, 2335}));
}

TEST(Backend, AttackEventsFitTheCounterBudget) {
  for (CpuModel m : kAllModels) {
    const PmuBackend& b = backend_for(m);
    EXPECT_EQ(b.attack_events().size(), EventDatabase::kNumCounters);
  }
}

// ---------------------------------------------------------------------------
// Table I cross-SKU differentials (satellite 3)

std::set<std::string> names_of(const PmuBackend& b) {
  std::set<std::string> out;
  for (const EventDescriptor& e : b.database().events()) out.insert(e.name);
  return out;
}

std::size_t symmetric_difference(const std::set<std::string>& a,
                                 const std::set<std::string>& b) {
  std::size_t n = 0;
  for (const std::string& s : a) n += b.count(s) == 0 ? 1 : 0;
  for (const std::string& s : b) n += a.count(s) == 0 ? 1 : 0;
  return n;
}

TEST(TableI, IntelSkusDifferInExactlyFourteenEvents) {
  const auto a = names_of(backend_for(CpuModel::kIntelXeonE5_1650));
  const auto b = names_of(backend_for(CpuModel::kIntelXeonE5_4617));
  EXPECT_EQ(a.size(), 6166u);
  EXPECT_EQ(b.size(), 6172u);
  EXPECT_EQ(symmetric_difference(a, b), 14u);
}

TEST(TableI, AmdSkusExposeIdenticalEventSets) {
  const auto a = names_of(backend_for(CpuModel::kAmdEpyc7252));
  const auto b = names_of(backend_for(CpuModel::kAmdEpyc7313P));
  EXPECT_EQ(a.size(), 1903u);
  EXPECT_EQ(symmetric_difference(a, b), 0u);
}

// ---------------------------------------------------------------------------
// CPU selector parsing (the AEGIS_CPU seam)

TEST(Selector, ParsesShorthandsTokensAndFullNames) {
  EXPECT_EQ(parse_cpu_model("amd"), CpuModel::kAmdEpyc7252);
  EXPECT_EQ(parse_cpu_model("intel"), CpuModel::kIntelXeonE5_1650);
  EXPECT_EQ(parse_cpu_model("AmdEpyc7313P"), CpuModel::kAmdEpyc7313P);
  EXPECT_EQ(parse_cpu_model("IntelXeonE5_4617"), CpuModel::kIntelXeonE5_4617);
  EXPECT_EQ(parse_cpu_model("AMD EPYC 7252"), CpuModel::kAmdEpyc7252);
  EXPECT_EQ(parse_cpu_model("ryzen"), std::nullopt);
  EXPECT_EQ(parse_cpu_model(""), std::nullopt);
}

TEST(Selector, EnvironmentSteersToolRuns) {
  ::setenv("AEGIS_CPU", "intel", 1);
  EXPECT_EQ(model_from_env(), CpuModel::kIntelXeonE5_1650);
  // A set but unparseable selector is an error naming the value, never a
  // silent fallback to the default vendor.
  ::setenv("AEGIS_CPU", "intle", 1);
  try {
    (void)model_from_env(CpuModel::kAmdEpyc7313P);
    ADD_FAILURE() << "a mistyped AEGIS_CPU must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("intle"), std::string::npos)
        << e.what();
  }
  ::setenv("AEGIS_CPU", "", 1);
  EXPECT_EQ(model_from_env(CpuModel::kAmdEpyc7313P),
            CpuModel::kAmdEpyc7313P);
  ::unsetenv("AEGIS_CPU");
  EXPECT_EQ(model_from_env(), CpuModel::kAmdEpyc7252);
}

}  // namespace
}  // namespace aegis::pmu::backend
