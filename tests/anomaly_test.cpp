// Anomaly-layer tests: AttackProbabilityMonitor calibration — the logistic
// score must separate the seceval frontier attacker behaviours (static/
// adaptive/fusion/stepping) from benign readers — and the alert count and
// alert event that ingest() publishes.
#include "telemetry/anomaly.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "telemetry/registry.hpp"

namespace aegis::telemetry {
namespace {

// ---------------------------------------------------------------------------
// AttackProbabilityMonitor calibration

const std::vector<std::uint32_t> kAttackSet = {11, 12, 13, 14};

SessionFeatures features(std::vector<std::uint32_t> monitored, double cv,
                         double stepped, std::uint64_t tenant = 1) {
  SessionFeatures f;
  f.tenant_id = tenant;
  f.monitored_events = std::move(monitored);
  f.read_gap_cv = cv;
  f.stepped_fraction = stepped;
  f.slices = 60;
  return f;
}

TEST(AttackMonitor, SeparatesFrontierAttackersFromBenignReaders) {
  Registry reg;
  AttackMonitorConfig cfg;
  cfg.attack_events = kAttackSet;
  AttackProbabilityMonitor mon(cfg, &reg);

  // The four seceval frontier attacker behaviours: all watch the vendor
  // attack set with metronomic cadence; the stepping attacker adds
  // SEV-Step-style single-stepping.
  const SessionFeatures fr_static = features(kAttackSet, 0.0, 0.0);
  const SessionFeatures fr_adaptive =
      features({11, 12, 13, 99}, 0.3, 0.0);
  const SessionFeatures fr_fusion = features(kAttackSet, 0.5, 0.0);
  const SessionFeatures fr_stepping = features(kAttackSet, 0.2, 1.0);
  for (const SessionFeatures& f :
       {fr_static, fr_adaptive, fr_fusion, fr_stepping}) {
    const AttackScore s = mon.score(f);
    EXPECT_GE(s.probability, 0.6) << "attacker profile under-scored";
    EXPECT_TRUE(s.alert);
  }

  // Benign readers: bursty ad-hoc dashboards with mostly non-attack events.
  const SessionFeatures benign_mixed = features({11, 20, 21, 22}, 2.0, 0.0);
  const SessionFeatures benign_devops = features({20, 21}, 1.0, 0.0);
  for (const SessionFeatures& f : {benign_mixed, benign_devops}) {
    const AttackScore s = mon.score(f);
    EXPECT_LT(s.probability, 0.25) << "benign profile over-scored";
    EXPECT_FALSE(s.alert);
  }
}

TEST(AttackMonitor, IngestPublishesGaugeCounterAndAlertEvent) {
  Registry reg;
  AttackMonitorConfig cfg;
  cfg.attack_events = kAttackSet;
  AttackProbabilityMonitor mon(cfg, &reg);

  const AttackScore s = mon.ingest(features(kAttackSet, 0.0, 1.0, /*tenant=*/42));
  EXPECT_TRUE(s.alert);
  EXPECT_EQ(mon.alerts(), 1u);

  bool saw_alert = false;
  for (const DrainedEvent& ev : reg.recorder().drain()) {
    if (ev.type == static_cast<std::uint16_t>(WideEventType::kAlert) &&
        ev.a == static_cast<std::uint64_t>(AlertKind::kAttackSuspected)) {
      saw_alert = true;
      EXPECT_EQ(ev.tenant, 42u);
      // The event carries the score's probability bits.
      double probability = 0.0;
      std::memcpy(&probability, &ev.b, sizeof(probability));
      EXPECT_EQ(probability, s.probability);
    }
  }
  EXPECT_TRUE(saw_alert);
}

TEST(AttackMonitor, SetAttackEventsSwapsTheLiveSet) {
  Registry reg;
  AttackProbabilityMonitor mon({}, &reg);  // empty construction-time set
  const SessionFeatures f = features(kAttackSet, 0.0, 0.0);
  const double before = mon.score(f).probability;

  mon.set_attack_events(kAttackSet);
  const double after = mon.score(f).probability;
  EXPECT_GT(after, before);
  EXPECT_EQ(mon.attack_events(), kAttackSet);
  EXPECT_TRUE(mon.config().attack_events.empty())
      << "config() reflects construction time, attack_events() the live set";
}

}  // namespace
}  // namespace aegis::telemetry
