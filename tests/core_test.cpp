// Integration tests: the full Aegis pipeline end-to-end at reduced scale —
// profile, rank, fuzz, cover, then verify the online defense actually
// degrades a trained attack (the paper's central claim).
#include <gtest/gtest.h>

#include "attack/wfa.hpp"
#include "core/aegis.hpp"
#include "workload/website.hpp"

namespace aegis::core {
namespace {

struct Pipeline {
  Aegis aegis{isa::CpuModel::kAmdEpyc7252};
  attack::WfaScale scale;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  OfflineResult result;

  Pipeline() {
    scale.sites = 6;
    scale.traces_per_site = 14;
    scale.epochs = 18;
    scale.slices = 160;
    secrets = attack::make_wfa_secrets(scale);
    OfflineConfig config = make_quick_offline_config();
    config.profiler.ranking_runs_per_secret = 4;
    config.fuzz_top_events = 0;
    result = aegis.analyze(*secrets[0], secrets, config);
  }
};

Pipeline& shared_pipeline() {
  static Pipeline pipeline;
  return pipeline;
}

TEST(Pipeline, WarmupMatchesVulnerableEventCount) {
  auto& p = shared_pipeline();
  EXPECT_NEAR(static_cast<double>(p.result.warmup.surviving.size()), 136.0, 10.0);
}

TEST(Pipeline, RankingCoversAllSurvivors) {
  auto& p = shared_pipeline();
  EXPECT_EQ(p.result.ranking.size(), p.result.warmup.surviving.size());
  const auto top = p.result.top_events(4);
  EXPECT_EQ(top.size(), 4u);
  EXPECT_EQ(top[0], p.result.ranking[0].event_id);
}

TEST(Pipeline, CoverReachesAlmostEveryEvent) {
  auto& p = shared_pipeline();
  EXPECT_GE(p.result.cover.covered_events.size(),
            p.result.warmup.surviving.size() - 4);
  // Paper Section VII-C: a handful of gadgets cover all vulnerable events
  // (43 gadgets for 137 events on the real machine).
  EXPECT_LT(p.result.cover.gadgets.size(),
            p.result.cover.covered_events.size() / 4);
  EXPECT_GE(p.result.cover.gadgets.size(), 2u);
}

TEST(Pipeline, AttackEventsAreCovered) {
  auto& p = shared_pipeline();
  for (auto name : pmu::kAmdAttackEvents) {
    const auto id = *p.aegis.database().find(name);
    EXPECT_NE(std::find(p.result.cover.covered_events.begin(),
                        p.result.cover.covered_events.end(), id),
              p.result.cover.covered_events.end())
        << name;
  }
}

TEST(Pipeline, FuzzTimingIsPopulated) {
  auto& p = shared_pipeline();
  const auto& timing = p.result.fuzz.timing;
  EXPECT_GT(timing.cleanup_seconds, 0.0);
  EXPECT_GT(timing.generation_execution_seconds, 0.0);
  EXPECT_GT(timing.confirmation_seconds, 0.0);
  EXPECT_GE(timing.filtering_seconds, 0.0);
  // Generation + execution dominates (Table III shape).
  EXPECT_GT(timing.generation_execution_seconds, timing.filtering_seconds);
}

TEST(Pipeline, DefenseCollapsesAttackAccuracy) {
  auto& p = shared_pipeline();
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) {
    events.push_back(*p.aegis.database().find(name));
  }
  attack::ClassificationAttack wfa(
      p.aegis.database(), attack::make_wfa_config(events, p.scale));
  (void)wfa.train(p.secrets);
  const double clean = wfa.exploit(p.secrets, 3, 42);
  EXPECT_GT(clean, 0.8);

  dp::MechanismConfig mech;
  mech.kind = dp::MechanismKind::kLaplace;
  mech.epsilon = 0.0625;
  auto obf = p.aegis.make_obfuscator(p.result, p.secrets, mech);
  const double defended =
      wfa.exploit(p.secrets, 3, 42, [&] { return obf->session(); });
  // Fig. 9a shape: accuracy collapses toward random guess (1/6 here).
  EXPECT_LT(defended, clean * 0.55);
  EXPECT_LT(defended, 0.55);
  EXPECT_GT(obf->total_injected_repetitions(), 0.0);
}

TEST(Pipeline, DStarAlsoDefends) {
  auto& p = shared_pipeline();
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) {
    events.push_back(*p.aegis.database().find(name));
  }
  attack::ClassificationAttack wfa(
      p.aegis.database(), attack::make_wfa_config(events, p.scale));
  (void)wfa.train(p.secrets);
  dp::MechanismConfig mech;
  mech.kind = dp::MechanismKind::kDStar;
  mech.epsilon = 1.0;
  auto obf = p.aegis.make_obfuscator(p.result, p.secrets, mech);
  const double defended =
      wfa.exploit(p.secrets, 3, 43, [&] { return obf->session(); });
  EXPECT_LT(defended, 0.5);
}

TEST(Pipeline, LessNoiseMeansMoreLeakage) {
  auto& p = shared_pipeline();
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) {
    events.push_back(*p.aegis.database().find(name));
  }
  attack::ClassificationAttack wfa(
      p.aegis.database(), attack::make_wfa_config(events, p.scale));
  (void)wfa.train(p.secrets);
  dp::MechanismConfig strong, weak;
  strong.kind = weak.kind = dp::MechanismKind::kLaplace;
  strong.epsilon = 0.125;
  weak.epsilon = 16.0;
  auto obf_strong = p.aegis.make_obfuscator(p.result, p.secrets, strong);
  auto obf_weak = p.aegis.make_obfuscator(p.result, p.secrets, weak);
  const double acc_strong =
      wfa.exploit(p.secrets, 3, 44, [&] { return obf_strong->session(); });
  const double acc_weak =
      wfa.exploit(p.secrets, 3, 44, [&] { return obf_weak->session(); });
  EXPECT_LT(acc_strong, acc_weak + 0.15);
}

TEST(Config, QuickConfigIsSane) {
  const OfflineConfig config = make_quick_offline_config(123);
  EXPECT_GT(config.profiler.warmup_repeats, 0u);
  EXPECT_GT(config.fuzzer.reset_sample, 0u);
  EXPECT_EQ(config.profiler.seed, 123u);
}

TEST(Aegis, SubstrateMatchesCpu) {
  Aegis aegis(isa::CpuModel::kIntelXeonE5_1650);
  EXPECT_EQ(aegis.cpu(), isa::CpuModel::kIntelXeonE5_1650);
  EXPECT_EQ(aegis.database().size(), 6166u);
  EXPECT_EQ(aegis.specification().legal_count(), 3386u);
}

TEST(Aegis, MakeObfuscatorRejectsEmptyCover) {
  // An analysis whose cover reaches no event (nothing ranked, nothing
  // fuzzed) leaves no reference event to size the noise against.
  const Aegis aegis(isa::CpuModel::kAmdEpyc7252);
  const OfflineResult empty;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(0, 40));
  dp::MechanismConfig mechanism;
  mechanism.kind = dp::MechanismKind::kLaplace;
  try {
    (void)aegis.make_obfuscator(empty, secrets, mechanism);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cover"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace aegis::core
