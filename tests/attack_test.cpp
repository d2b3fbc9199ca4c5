#include <gtest/gtest.h>

#include "attack/ksa.hpp"
#include "attack/mea.hpp"
#include "attack/wfa.hpp"
#include "util/hash.hpp"

namespace aegis::attack {
namespace {

std::vector<std::uint32_t> attack_events(const pmu::EventDatabase& db) {
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*db.find(name));
  return events;
}

TEST(Dataset, CollectsLabelledTraces) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(0, 80));
  secrets.push_back(std::make_unique<workload::WebsiteWorkload>(1, 80));
  CollectionConfig config;
  config.event_ids = attack_events(db);
  config.traces_per_secret = 3;
  const trace::TraceSet set = collect_traces(db, secrets, config);
  EXPECT_EQ(set.size(), 6u);
  EXPECT_EQ(set.num_classes, 2);
  for (const auto& t : set.traces) {
    EXPECT_EQ(t.slices(), 80u);
    EXPECT_EQ(t.events(), 4u);
  }
  EXPECT_EQ(set.labels[0], 0);
  EXPECT_EQ(set.labels[5], 1);
}

TEST(Dataset, CollectOneIsDeterministicPerSeed) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  workload::WebsiteWorkload site(2, 60);
  CollectionConfig config;
  config.event_ids = attack_events(db);
  const trace::Trace a = collect_one(db, site, config, 99);
  const trace::Trace b = collect_one(db, site, config, 99);
  EXPECT_EQ(a.samples, b.samples);
  const trace::Trace c = collect_one(db, site, config, 100);
  EXPECT_NE(a.samples, c.samples);
}

TEST(Wfa, SecretFactoryBuildsAllSites) {
  WfaScale scale;
  const auto secrets = make_wfa_secrets(scale);
  EXPECT_EQ(secrets.size(), workload::WebsiteWorkload::kNumSites);
  EXPECT_EQ(secrets[2]->name(), "facebook.com");
}

TEST(Wfa, HighAccuracyOnCleanTraces) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  WfaScale scale;
  scale.sites = 8;
  scale.traces_per_site = 14;
  scale.epochs = 20;
  scale.slices = 180;
  const auto secrets = make_wfa_secrets(scale);
  ClassificationAttack wfa(db, make_wfa_config(attack_events(db), scale));
  const auto history = wfa.train(secrets);
  ASSERT_EQ(history.size(), 20u);
  // Fig. 1a shape: accuracy climbs during training to a high plateau.
  EXPECT_GT(history.back().val_accuracy, 0.85);
  EXPECT_GT(history.back().train_accuracy, history.front().train_accuracy);
  // Victim exploitation mirrors validation accuracy (paper: 98.7 vs 98.6).
  EXPECT_GT(wfa.exploit(secrets, 3, 501), 0.8);
}

TEST(Wfa, PredictThrowsBeforeTraining) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  WfaScale scale;
  ClassificationAttack wfa(db, make_wfa_config(attack_events(db), scale));
  trace::Trace t;
  EXPECT_THROW((void)wfa.predict(t), std::logic_error);
  EXPECT_THROW((void)wfa.exploit({}, 1, 1), std::logic_error);
}

TEST(Ksa, SecretFactoryCoversAllCounts) {
  KsaScale scale;
  const auto secrets = make_ksa_secrets(scale);
  EXPECT_EQ(secrets.size(), 10u);  // K in [0, 9]
  EXPECT_EQ(secrets[0]->name(), "0 keystrokes");
  EXPECT_EQ(secrets[9]->name(), "9 keystrokes");
}

TEST(Ksa, HighAccuracyOnCleanTraces) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  KsaScale scale;
  scale.traces_per_count = 60;
  scale.epochs = 25;
  scale.slices = 200;
  const auto secrets = make_ksa_secrets(scale);
  ClassificationAttack ksa(db, make_ksa_config(attack_events(db), scale));
  const auto history = ksa.train(secrets);
  EXPECT_GT(history.back().val_accuracy, 0.7);
}

TEST(Mea, TrainAndExtractArchitectures) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  MeaConfig config;
  config.event_ids = attack_events(db);
  config.scale.models = 6;
  config.scale.traces_per_model = 8;
  config.scale.epochs = 12;
  config.scale.slices = 200;
  MeaAttack mea(db, config);
  const auto history = mea.train();
  // Frame classifier learns layer signatures (Fig. 1c shape).
  EXPECT_GT(history.back().val_accuracy, 0.85);
  EXPECT_GT(mea.validation_frame_accuracy(), 0.85);
  // Victim extraction: matched-layers metric well above chance.
  EXPECT_GT(mea.exploit(2, 777), 0.6);
}

TEST(Mea, ExtractReturnsPlausibleSequence) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  MeaConfig config;
  config.event_ids = attack_events(db);
  config.scale.models = 4;
  config.scale.traces_per_model = 8;
  config.scale.epochs = 12;
  config.scale.slices = 200;
  MeaAttack mea(db, config);
  (void)mea.train();
  const std::vector<int> seq = mea.extract(0, 31337);
  EXPECT_GT(seq.size(), 3u);
  for (int label : seq) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, workload::kBlankLabel);  // blank never appears decoded
  }
}

/// FNV-1a over every double bit of a training history. The pinned values
/// below were captured while the MLP still trained one sample at a time.
std::uint64_t digest(const std::vector<ml::EpochStats>& history) {
  std::uint64_t h =
      util::hash_combine(util::kFnvOffset, std::uint64_t{history.size()});
  for (const ml::EpochStats& s : history) {
    h = util::hash_combine(h, std::uint64_t{s.epoch});
    h = util::hash_combine(h, s.train_loss);
    h = util::hash_combine(h, s.train_accuracy);
    h = util::hash_combine(h, s.val_accuracy);
  }
  return h;
}

TEST(AttackDigest, ClassificationAttackHistoryPinned) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  WfaScale scale;
  scale.sites = 4;
  scale.traces_per_site = 6;
  scale.epochs = 4;
  scale.slices = 80;
  const auto secrets = make_wfa_secrets(scale);
  ClassificationAttack wfa(db, make_wfa_config(attack_events(db), scale));
  const std::uint64_t h = digest(wfa.train(secrets));
  EXPECT_EQ(h, 0x3fe912795ff38ac2ULL) << std::hex << "history 0x" << h;
}

TEST(AttackDigest, MeaAttackHistoryPinned) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  MeaConfig config;
  config.event_ids = attack_events(db);
  config.scale.models = 3;
  config.scale.traces_per_model = 4;
  config.scale.epochs = 4;
  config.scale.slices = 100;
  MeaAttack mea(db, config);
  const std::uint64_t h = digest(mea.train());
  EXPECT_EQ(h, 0x332bf97dc8bfd2d1ULL) << std::hex << "history 0x" << h;
}

TEST(Mea, ThrowsBeforeTraining) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  MeaConfig config;
  config.event_ids = attack_events(db);
  config.scale.models = 2;
  MeaAttack mea(db, config);
  EXPECT_THROW((void)mea.extract(0, 1), std::logic_error);
  EXPECT_THROW((void)mea.exploit(1, 1), std::logic_error);
}

}  // namespace
}  // namespace aegis::attack
