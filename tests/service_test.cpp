#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/wfa.hpp"
#include "pmu/backend/backend.hpp"
#include "service/protection_service.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"

namespace aegis::service {
namespace {

/// One offline analysis + calibration shared by the whole suite (the same
/// scaled-down WFA scenario the serialize tests use).
struct Fixture {
  core::Aegis aegis{isa::CpuModel::kAmdEpyc7252};
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  core::OfflineConfig config;
  std::shared_ptr<const core::OfflineResult> analysis;
  ProtectionTemplate tpl;

  Fixture() {
    attack::WfaScale scale;
    scale.sites = 4;
    scale.slices = 100;
    secrets = attack::make_wfa_secrets(scale);
    config = core::make_quick_offline_config();
    config.profiler.ranking_runs_per_secret = 3;
    config.fuzz_top_events = 12;
    analysis = std::make_shared<const core::OfflineResult>(
        aegis.analyze(*secrets[0], secrets, config));
    dp::MechanismConfig mechanism;
    mechanism.kind = dp::MechanismKind::kLaplace;
    mechanism.epsilon = 0.05;
    tpl = make_protection_template(aegis, analysis, secrets, mechanism, {},
                                   0xFEEDULL);
  }

  dp::MechanismConfig mechanism() const { return tpl.obf_config.mechanism; }

  SessionRequest request(std::uint64_t tenant, std::size_t slices = 40) const {
    SessionRequest req;
    req.tenant_id = tenant;
    req.seed = util::split_mix64(0xABCDULL, tenant);
    req.application = secrets[tenant % secrets.size()].get();
    req.slices = slices;
    req.per_slice_epsilon = tpl.obf_config.mechanism.epsilon;
    return req;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = "/tmp/aegis_service_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------- keying

TEST(TemplateKeying, FamilyMembersShareAKey) {
  auto& f = fixture();
  const TemplateKey a =
      make_template_key(isa::CpuModel::kAmdEpyc7252, *f.secrets[0], f.config);
  const TemplateKey b =
      make_template_key(isa::CpuModel::kAmdEpyc7313P, *f.secrets[0], f.config);
  EXPECT_EQ(a, b);  // Table I: family members share event lists
  const TemplateKey intel = make_template_key(isa::CpuModel::kIntelXeonE5_1650,
                                              *f.secrets[0], f.config);
  EXPECT_NE(a, intel);
}

TEST(TemplateKeying, ConfigHashIsThreadCountInvariantButFieldSensitive) {
  auto& f = fixture();
  core::OfflineConfig threaded = f.config;
  threaded.set_num_threads(8);
  EXPECT_EQ(hash_offline_config(f.config), hash_offline_config(threaded));

  core::OfflineConfig different = f.config;
  different.fuzzer.seed ^= 1;
  EXPECT_NE(hash_offline_config(f.config), hash_offline_config(different));
  different = f.config;
  different.fuzz_top_events += 1;
  EXPECT_NE(hash_offline_config(f.config), hash_offline_config(different));
}

TEST(TemplateKeying, WorkloadFingerprintSeparatesSecrets) {
  auto& f = fixture();
  EXPECT_NE(fingerprint_workload(*f.secrets[0]),
            fingerprint_workload(*f.secrets[1]));
  EXPECT_EQ(fingerprint_workload(*f.secrets[0]),
            fingerprint_workload(*f.secrets[0]));
}

// ---------------------------------------------------------- single-flight

// Pins the full key-hash composition (vendor, family, fingerprint,
// config hash chained through util::hash_combine). The value was computed
// independently from the FNV-1a spec; if this fails, the on-disk cache
// naming scheme changed and warm starts will re-run every analysis.
TEST(TemplateKeying, KeyHashGoldenValuePinsFnvComposition) {
  TemplateKey key;
  key.vendor = isa::Vendor::kAmd;
  key.cpu_family = 0x19;
  key.workload_fingerprint = 0x1122334455667788ULL;
  key.config_hash = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(TemplateKeyHash{}(key),
            static_cast<std::size_t>(0xac7917c1241e9876ULL));
}

TEST(TemplateCacheTest, ColdStartOfManyTenantsRunsExactlyOneAnalysis) {
  auto& f = fixture();
  TemplateCache cache;  // memory-only
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  constexpr std::size_t kTenants = 8;
  std::atomic<int> analyses{0};
  std::vector<std::shared_ptr<const core::OfflineResult>> results(kTenants);
  std::vector<std::thread> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      results[t] = cache.get_or_analyze(key, f.aegis, [&] {
        ++analyses;
        // Hold the in-flight window open long enough that every other
        // tenant joins it instead of racing past.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return *f.analysis;  // copy of the precomputed analysis
      });
    });
  }
  for (auto& t : tenants) t.join();

  EXPECT_EQ(analyses.load(), 1);
  for (std::size_t t = 1; t < kTenants; ++t) {
    EXPECT_EQ(results[t], results[0]);  // shared pointer identity
  }
  const TemplateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kTenants);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kTenants - 1);
  EXPECT_EQ(stats.analyses_run, 1u);
  EXPECT_EQ(stats.warm_starts, 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TemplateCacheTest, WarmStartsFromDiskWithoutReanalysis) {
  auto& f = fixture();
  const std::string dir = fresh_dir("warm");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  {
    TemplateCache writer({dir});
    (void)writer.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
    EXPECT_EQ(writer.stats().analyses_run, 1u);
    EXPECT_TRUE(std::filesystem::exists(writer.disk_path(key)));
  }

  TemplateCache cold({dir});  // a restarted service instance
  const auto loaded = cold.get_or_analyze(key, f.aegis, [&]() {
    ADD_FAILURE() << "warm start must not re-run the analysis";
    return *f.analysis;
  });
  EXPECT_EQ(loaded->cover.gadgets, f.analysis->cover.gadgets);
  EXPECT_EQ(loaded->warmup.surviving, f.analysis->warmup.surviving);
  const TemplateCacheStats stats = cold.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_EQ(stats.analyses_run, 0u);
}

TEST(TemplateCacheTest, FaultingGadgetUidCountsFailedLoadAndReanalyzes) {
  auto& f = fixture();
  const std::string dir = fresh_dir("faulting-uid");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);
  std::uint32_t faulting = 0;
  while (f.aegis.specification().by_uid(faulting).legal()) ++faulting;

  {
    TemplateCache writer({dir});
    (void)writer.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
    // Swap the first cover gadget's reset uid for a faulting variant: a
    // well-formed file that must still not load.
    std::ifstream in(writer.disk_path(key));
    std::stringstream text;
    text << in.rdbuf();
    std::string body = text.str();
    const std::size_t row = body.find('\n', body.find("[cover]\n") + 8) + 1;
    body.replace(row, body.find('\t', row) - row, std::to_string(faulting));
    std::ofstream(writer.disk_path(key), std::ios::trunc) << body;
  }

  TemplateCache cold({dir});
  const auto result =
      cold.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
  EXPECT_EQ(result->cover.gadgets, f.analysis->cover.gadgets);
  const TemplateCacheStats stats = cold.stats();
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_EQ(stats.failed_loads, 1u);
  EXPECT_EQ(stats.analyses_run, 1u);
}

TEST(TemplateCacheTest, CorruptDiskFileCountsFailedLoadAndReanalyzes) {
  auto& f = fixture();
  const std::string dir = fresh_dir("corrupt");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  {
    TemplateCache writer({dir});
    (void)writer.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
    // Truncate the persisted template: the next instance finds the file,
    // attempts the load, fails, and falls back to a fresh analysis.
    std::ofstream corrupt(writer.disk_path(key), std::ios::trunc);
    corrupt << "not a template";
  }

  TemplateCache cold({dir});
  const auto result =
      cold.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
  EXPECT_EQ(result->cover.gadgets, f.analysis->cover.gadgets);
  const TemplateCacheStats stats = cold.stats();
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.warm_starts, 1u);   // the load was attempted...
  EXPECT_EQ(stats.failed_loads, 1u);  // ...and failed
  EXPECT_EQ(stats.analyses_run, 1u);
  // The documented identity, exactly:
  EXPECT_EQ(stats.analyses_run,
            stats.misses - stats.warm_starts + stats.failed_loads);
}

TEST(TemplateCacheTest, StatsIdentityHoldsAcrossColdWarmAndFailedPaths) {
  auto& f = fixture();
  const std::string dir = fresh_dir("identity");
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);

  TemplateCache cache({dir});
  (void)cache.get_or_analyze(key, f.aegis,
                             [&] { return *f.analysis; });  // cold miss
  (void)cache.get_or_analyze(key, f.aegis,
                             [&] { return *f.analysis; });  // hit
  // A second key whose analysis throws: still a miss + an analysis run.
  core::OfflineConfig other = f.config;
  other.fuzz_top_events += 1;
  const TemplateKey key2 = make_template_key(f.aegis.cpu(), *f.secrets[0], other);
  EXPECT_THROW((void)cache.get_or_analyze(
                   key2, f.aegis,
                   []() -> core::OfflineResult {
                     throw std::runtime_error("injected failure");
                   }),
               std::runtime_error);

  const TemplateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.warm_starts, 0u);
  EXPECT_EQ(stats.failed_loads, 0u);
  EXPECT_EQ(stats.analyses_run, 2u);  // thrown analyses count: they ran
  EXPECT_EQ(stats.analyses_run,
            stats.misses - stats.warm_starts + stats.failed_loads);
}

TEST(TemplateCacheTest, TwoCachesInOneProcessKeepSeparateExactStats) {
  auto& f = fixture();
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);
  TemplateCache first;
  TemplateCache second;
  for (int i = 0; i < 3; ++i) {
    (void)first.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
  }
  (void)second.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });

  const TemplateCacheStats a = first.stats();
  EXPECT_EQ(a.lookups, 3u);
  EXPECT_EQ(a.hits, 2u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.analyses_run, 1u);
  const TemplateCacheStats b = second.stats();
  EXPECT_EQ(b.lookups, 1u);
  EXPECT_EQ(b.hits, 0u);
  EXPECT_EQ(b.misses, 1u);
  EXPECT_EQ(b.analyses_run, 1u);
}

TEST(TemplateCacheTest, FailedAnalysisPropagatesAndAllowsRetry) {
  auto& f = fixture();
  TemplateCache cache;
  const TemplateKey key =
      make_template_key(f.aegis.cpu(), *f.secrets[0], f.config);
  EXPECT_THROW((void)cache.get_or_analyze(
                   key, f.aegis,
                   []() -> core::OfflineResult {
                     throw std::runtime_error("injected failure");
                   }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);  // evicted: the next caller may retry
  const auto retried =
      cache.get_or_analyze(key, f.aegis, [&] { return *f.analysis; });
  EXPECT_EQ(retried->cover.gadgets, f.analysis->cover.gadgets);
}

// ------------------------------------------------------ fleet determinism

TEST(SessionFleet, SixteenTenantsBitIdenticalToStandaloneAcrossThreadCounts) {
  auto& f = fixture();
  constexpr std::size_t kTenants = 16;

  std::vector<SessionRequest> requests;
  for (std::size_t t = 0; t < kTenants; ++t) {
    requests.push_back(f.request(t));
  }

  // The reference: each tenant standalone, no fleet machinery at all.
  std::vector<SessionResult> standalone;
  for (const auto& req : requests) {
    standalone.push_back(run_protected_session(f.tpl, req, 1));
  }

  for (std::size_t num_threads : {std::size_t{1}, std::size_t{8}}) {
    BudgetGovernor governor;  // fresh budgets: every window admits at g=1
    SessionManager manager(num_threads, governor);
    const std::vector<SessionResult> fleet = manager.run_fleet(f.tpl, requests);

    ASSERT_EQ(fleet.size(), standalone.size());
    for (std::size_t t = 0; t < kTenants; ++t) {
      SCOPED_TRACE("tenant " + std::to_string(t) + " threads " +
                   std::to_string(num_threads));
      EXPECT_EQ(fleet[t].outcome, Admission::kAdmit);
      EXPECT_EQ(fleet[t].granularity, 1u);
      // Bit-identical counter traces: exact double equality, no tolerance.
      ASSERT_EQ(fleet[t].trace.samples, standalone[t].trace.samples);
      EXPECT_EQ(fleet[t].injected_repetitions,
                standalone[t].injected_repetitions);
      EXPECT_EQ(fleet[t].noise_draws, standalone[t].noise_draws);
    }
    std::uint64_t draws = 0;
    for (const SessionResult& r : standalone) draws += r.noise_draws;
    EXPECT_EQ(manager.noise_draws(), draws);
    EXPECT_EQ(manager.completed(), kTenants);
    EXPECT_EQ(manager.refused(), 0u);
  }
}

TEST(SessionFleet, NoiseDrawsAreRefreshWindowsTimesNoiseStreams) {
  auto& f = fixture();
  // One Laplace draw per noise stream (one per segment gadget) at every
  // noise-refresh window, i.e. every granularity-th slice.
  ASSERT_FALSE(f.tpl.obf_config.single_stream);
  const std::size_t streams = f.tpl.obf_config.weighted_segment.empty()
                                  ? f.tpl.analysis->cover.gadgets.size()
                                  : f.tpl.obf_config.weighted_segment.size();
  ASSERT_GT(streams, 1u);
  const SessionRequest req = f.request(5, 40);
  for (std::size_t granularity : {std::size_t{1}, std::size_t{3}}) {
    const SessionResult r = run_protected_session(f.tpl, req, granularity);
    const std::size_t windows = (req.slices + granularity - 1) / granularity;
    EXPECT_EQ(r.noise_draws, windows * streams) << "g=" << granularity;
  }
}

TEST(SessionFleet, TelemetryAttachmentDoesNotPerturbResults) {
  auto& f = fixture();
  const SessionRequest req = f.request(3);

  const SessionResult bare = run_protected_session(f.tpl, req, 2, nullptr);
  telemetry::Registry registry;
  const SessionResult traced = run_protected_session(f.tpl, req, 2, &registry);

  // Bit-identical results: telemetry draws no randomness and no sim state.
  ASSERT_EQ(traced.trace.samples, bare.trace.samples);
  EXPECT_EQ(traced.injected_repetitions, bare.injected_repetitions);

  // The session was recorded from the VIRTUAL clock: one span over all its
  // slices, stamped in slice-index nanoseconds.
  const auto spans = telemetry::completed_spans(registry.recorder().drain());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(registry.recorder().streams().at(spans[0].stream),
            "inject.window");
  EXPECT_EQ(spans[0].begin_ns, 0u);
  EXPECT_EQ(spans[0].end_ns, req.slices * 1000u);  // 1000 ns/slice
  EXPECT_EQ(spans[0].arg, req.tenant_id);
}

TEST(SessionFleet, SharedRegistryCollectsFleetCountersAndBudgetTimeline) {
  auto& f = fixture();
  constexpr std::size_t kTenants = 4;
  std::vector<SessionRequest> requests;
  for (std::size_t t = 0; t < kTenants; ++t) requests.push_back(f.request(t));

  telemetry::Registry registry;
  GovernorConfig gov_config;
  gov_config.telemetry = &registry;
  BudgetGovernor governor(gov_config);
  SessionManager manager(2, governor, &registry);
  (void)manager.run_fleet(f.tpl, requests);

  EXPECT_EQ(manager.started(), kTenants);
  EXPECT_EQ(manager.completed(), kTenants);

  const std::vector<telemetry::DrainedEvent> events =
      registry.recorder().drain();
  const std::vector<std::string> streams = registry.recorder().streams();

  // One kAdmission event per decision, in submission order: outcome code
  // admit (0), a positive ε after, tenant in the tenant field.
  std::vector<const telemetry::DrainedEvent*> decisions;
  for (const auto& e : events) {
    if (e.type ==
        static_cast<std::uint16_t>(telemetry::WideEventType::kAdmission)) {
      decisions.push_back(&e);
    }
  }
  ASSERT_EQ(decisions.size(), kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(streams.at(decisions[t]->stream), "governor.decision");
    EXPECT_EQ(decisions[t]->tenant, t);
    EXPECT_EQ(decisions[t]->a, 0u);
    double epsilon_after = 0.0;
    std::memcpy(&epsilon_after, &decisions[t]->d, sizeof(epsilon_after));
    EXPECT_GT(epsilon_after, 0.0);
  }

  // The fleet phases traced: one admission span + one span per session.
  std::size_t admission = 0, sessions = 0;
  for (const auto& s : telemetry::completed_spans(events)) {
    if (streams.at(s.stream) == "fleet.admission") ++admission;
    if (streams.at(s.stream) == "fleet.session") ++sessions;
  }
  EXPECT_EQ(admission, 1u);
  EXPECT_EQ(sessions, kTenants);
}

TEST(SessionFleet, TenantTraceIndependentOfFleetComposition) {
  auto& f = fixture();
  // Tenant 3 alone...
  BudgetGovernor g1;
  SessionManager alone(2, g1);
  const auto solo = alone.run_fleet(f.tpl, {f.request(3)});
  // ...and inside a 8-tenant fleet.
  std::vector<SessionRequest> requests;
  for (std::size_t t = 0; t < 8; ++t) requests.push_back(f.request(t));
  BudgetGovernor g2;
  SessionManager fleet(4, g2);
  const auto together = fleet.run_fleet(f.tpl, requests);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].trace.samples, together[3].trace.samples);
}

// ------------------------------------------------------- admission control

TEST(BudgetGovernorTest, WalksAdmitDegradeRefuseAsBudgetExhausts) {
  GovernorConfig config;
  config.default_epsilon_cap = 8.0;
  config.delta = 1e-6;
  config.max_granularity = 64;
  BudgetGovernor governor(config);

  const std::uint64_t tenant = 42;
  const std::size_t slices = 32;
  const double eps = 0.2;

  std::size_t admits = 0, degrades = 0, refusals = 0;
  bool seen_degrade_after_admit = false;
  bool seen_refuse_after_degrade = false;
  Admission last = Admission::kAdmit;
  dp::PrivacyAccountant shadow;  // direct re-computation of the spend

  for (int window = 0; window < 64; ++window) {
    const AdmissionDecision decision =
        governor.request_window(tenant, slices, eps);
    switch (decision.outcome) {
      case Admission::kAdmit:
        ++admits;
        EXPECT_EQ(decision.granularity, 1u);
        EXPECT_EQ(decision.releases, slices);
        break;
      case Admission::kDegrade:
        ++degrades;
        EXPECT_GT(decision.granularity, 1u);
        EXPECT_LT(decision.releases, slices);
        if (last == Admission::kAdmit) seen_degrade_after_admit = true;
        break;
      case Admission::kRefuse:
        ++refusals;
        EXPECT_EQ(decision.releases, 0u);
        if (last == Admission::kDegrade) seen_refuse_after_degrade = true;
        break;
    }
    if (decision.outcome != Admission::kRefuse) {
      shadow.record_releases(eps, decision.releases);
      // The grant itself never crosses the cap...
      EXPECT_LE(decision.epsilon_after, config.default_epsilon_cap + 1e-12);
      // ...and matches a direct advanced-composition computation.
      EXPECT_NEAR(decision.epsilon_after, shadow.advanced_epsilon(config.delta),
                  1e-12);
    } else {
      // Refusals record nothing: the spend stays where it was.
      EXPECT_NEAR(decision.epsilon_after, shadow.advanced_epsilon(config.delta),
                  1e-12);
    }
    last = decision.outcome;
  }

  // All three outcomes occur, in budget order.
  EXPECT_GE(admits, 1u);
  EXPECT_GE(degrades, 1u);
  EXPECT_GE(refusals, 1u);
  EXPECT_TRUE(seen_degrade_after_admit);
  EXPECT_TRUE(seen_refuse_after_degrade);

  // ServiceStats-side counters match the observed outcomes exactly.
  const TenantBudgetStats usage = governor.usage(tenant);
  EXPECT_EQ(usage.admitted, admits);
  EXPECT_EQ(usage.degraded, degrades);
  EXPECT_EQ(usage.refused, refusals);
  EXPECT_EQ(usage.releases, shadow.releases());
  EXPECT_NEAR(usage.advanced_epsilon, shadow.advanced_epsilon(config.delta),
              1e-12);
  EXPECT_LE(usage.advanced_epsilon, usage.epsilon_cap);
  EXPECT_NEAR(usage.epsilon_cap - usage.advanced_epsilon,
              shadow.remaining(config.default_epsilon_cap, config.delta),
              1e-12);
}

TEST(BudgetGovernorTest, RefusedSessionsCarryNoTrace) {
  auto& f = fixture();
  GovernorConfig config;
  config.default_epsilon_cap = 1e-3;  // nothing fits
  config.max_granularity = 4;
  BudgetGovernor governor(config);
  SessionManager manager(2, governor);
  const auto results = manager.run_fleet(f.tpl, {f.request(7)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Admission::kRefuse);
  EXPECT_TRUE(results[0].trace.samples.empty());
  EXPECT_EQ(manager.refused(), 1u);
  EXPECT_EQ(manager.completed(), 0u);
}

TEST(BudgetGovernorTest, ZeroEpsilonWindowsAlwaysAdmit) {
  BudgetGovernor governor;
  // The d* mechanism's guarantee is series-level: per-slice accounting
  // does not apply, and the governor never refuses it.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(governor.request_window(1, 100, 0.0).outcome, Admission::kAdmit);
  }
  EXPECT_EQ(governor.usage(1).releases, 0u);
}

TEST(BudgetGovernorTest, TenantsAreIsolated) {
  GovernorConfig config;
  config.default_epsilon_cap = 2.0;
  BudgetGovernor governor(config);
  // Exhaust tenant 1.
  while (governor.request_window(1, 64, 0.2).outcome != Admission::kRefuse) {
  }
  // Tenant 2's budget is untouched.
  EXPECT_EQ(governor.request_window(2, 16, 0.05).outcome, Admission::kAdmit);
  const TenantBudgetStats usage = governor.usage(2);
  EXPECT_DOUBLE_EQ(usage.epsilon_cap, 2.0);
  EXPECT_EQ(usage.releases, 16u);
  EXPECT_LT(usage.advanced_epsilon, usage.epsilon_cap);
}

// ----------------------------------------------------------- bounded queue

TEST(BoundedQueueTest, BackpressureBlocksProducerUntilPop) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  EXPECT_FALSE(queue.try_push(3));  // full

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(queue.push(3));  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());  // still blocked: the queue is full
  EXPECT_EQ(queue.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, CloseDrainsThenReportsEmpty) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));  // rejected after close
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.pop().has_value());  // closed + drained
}

TEST(BoundedQueueTest, CloseWakesEveryBlockedProducer) {
  // Shutdown with producers parked in push(): close() must wake all of
  // them with push() == false, and the pre-close item must still drain.
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(0));  // queue now full: every push below blocks
  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &rejected, p] {
      if (!queue.push(p + 1)) ++rejected;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  queue.close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);
  EXPECT_EQ(queue.pop().value(), 0);
  EXPECT_FALSE(queue.pop().has_value());  // closed + drained
}

TEST(BoundedQueueTest, CloseWithFullQueueDrainsInOrder) {
  BoundedQueue<int> queue(3);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.push(i));
  queue.close();
  EXPECT_EQ(queue.size(), 3u);  // close never drops accepted items
  const std::deque<int> batch = queue.pop_batch(8);
  ASSERT_EQ(batch.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(batch[i], i);
  EXPECT_TRUE(queue.pop_batch(8).empty());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueueTest, ConcurrentCloseAndPushNeverLosesAcceptedItems) {
  // Races close() against a herd of non-blocking pushers with a live
  // consumer (run under TSan via check.sh's fast filter). Invariant:
  // exactly the accepted pushes are popped — close neither drops an
  // accepted item nor admits one after shutdown.
  constexpr int kPushers = 8;
  constexpr int kPerPusher = 64;
  BoundedQueue<int> queue(16);
  std::atomic<int> accepted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pushers;
  pushers.reserve(kPushers);
  for (int p = 0; p < kPushers; ++p) {
    pushers.emplace_back([&queue, &accepted, &go, p] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kPerPusher; ++i) {
        if (queue.try_push(p * kPerPusher + i)) ++accepted;
      }
    });
  }
  std::atomic<int> drained{0};
  std::thread consumer([&queue, &drained] {
    while (queue.pop().has_value()) ++drained;
  });
  go = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.close();
  for (auto& t : pushers) t.join();
  consumer.join();
  EXPECT_EQ(drained.load(), accepted.load());
}

// -------------------------------------------------------------- end to end

TEST(ProtectionServiceTest, EndToEndFleetThroughTheDaemon) {
  auto& f = fixture();
  ServiceConfig config;
  config.num_threads = 4;
  config.queue_capacity = 4;  // tighter than the load: exercises backpressure
  config.batch_size = 4;
  ProtectionService svc(config);

  dp::MechanismConfig mechanism = f.mechanism();
  const std::size_t tpl_id = svc.register_template(
      f.aegis, *f.secrets[0], f.secrets, f.config, mechanism, {}, 0xFEEDULL);

  constexpr std::size_t kSessions = 12;
  for (std::size_t s = 0; s < kSessions; ++s) {
    SessionSubmission sub;
    sub.template_id = tpl_id;
    sub.request = f.request(s % 3, 30);
    ASSERT_TRUE(svc.submit(sub));
  }
  svc.drain();

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.sessions_submitted, kSessions);
  EXPECT_EQ(stats.sessions_completed, kSessions);
  EXPECT_EQ(stats.sessions_refused, 0u);
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.cache.lookups, 1u);
  EXPECT_GT(stats.noise_draws, 0u);
  ASSERT_EQ(stats.tenants.size(), 3u);
  for (const auto& tenant : stats.tenants) {
    EXPECT_GT(tenant.releases, 0u);
    EXPECT_GT(tenant.advanced_epsilon, 0.0);
    EXPECT_LE(tenant.advanced_epsilon, tenant.epsilon_cap);
  }

  const auto completed = svc.take_completed();
  ASSERT_EQ(completed.size(), kSessions);
  std::uint64_t draws = 0;
  for (const auto& done : completed) {
    EXPECT_EQ(done.result.outcome, Admission::kAdmit);
    EXPECT_FALSE(done.result.trace.samples.empty());
    EXPECT_GT(done.latency_seconds, 0.0);
    draws += done.result.noise_draws;
  }
  EXPECT_EQ(stats.noise_draws, draws);
  EXPECT_TRUE(svc.take_completed().empty());  // moved out
}

TEST(ProtectionServiceTest, ConcurrentRegistrationsShareOneTemplate) {
  auto& f = fixture();
  // Pre-populate a disk cache so the heavy analysis is not re-run here.
  const std::string dir = fresh_dir("register");
  {
    TemplateCache seeded({dir});
    (void)seeded.get_or_analyze(
        make_template_key(f.aegis.cpu(), *f.secrets[0], f.config),
        f.aegis, [&] { return *f.analysis; });
  }

  ServiceConfig config;
  config.num_threads = 2;
  config.cache.cache_dir = dir;
  ProtectionService svc(config);

  constexpr std::size_t kTenants = 6;
  std::vector<std::size_t> ids(kTenants);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      ids[t] = svc.register_template(f.aegis, *f.secrets[0], f.secrets,
                                     f.config, f.mechanism(), {}, 0xFEEDULL);
    });
  }
  for (auto& t : threads) t.join();

  for (std::size_t t = 1; t < kTenants; ++t) EXPECT_EQ(ids[t], ids[0]);
  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.cache.lookups, kTenants);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.warm_starts, 1u);
  EXPECT_EQ(stats.cache.analyses_run, 0u);
}

// Two services recording into one injected registry: the trace is shared,
// the counts are not.
TEST(ProtectionServiceTest, ServicesSharingARegistryKeepSeparateExactStats) {
  auto& f = fixture();
  const std::string dir = fresh_dir("shared_registry");
  {
    TemplateCache seeded({dir});
    (void)seeded.get_or_analyze(
        make_template_key(f.aegis.cpu(), *f.secrets[0], f.config), f.aegis,
        [&] { return *f.analysis; });
  }
  telemetry::Registry registry;
  ServiceConfig config;
  config.num_threads = 1;
  config.cache.cache_dir = dir;
  config.governor.default_epsilon_cap = 1e9;  // ample: every window admits
  config.telemetry = &registry;
  ProtectionService first(config);
  ProtectionService second(config);

  const auto serve = [&](ProtectionService& svc, std::size_t sessions) {
    const std::size_t tpl_id = svc.register_template(
        f.aegis, *f.secrets[0], f.secrets, f.config, f.mechanism(), {},
        0xFEEDULL);
    for (std::size_t s = 0; s < sessions; ++s) {
      SessionSubmission sub;
      sub.template_id = tpl_id;
      sub.request = f.request(s % 2, 20);
      ASSERT_TRUE(svc.submit(sub));
    }
    svc.drain();
  };
  const auto expect_exact = [](const ProtectionService& svc,
                               std::size_t sessions) {
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.sessions_submitted, sessions);
    EXPECT_EQ(stats.sessions_started, sessions);
    EXPECT_EQ(stats.sessions_completed, sessions);
    EXPECT_EQ(stats.cache.lookups, 1u);
    EXPECT_EQ(stats.cache.warm_starts, 1u);
    EXPECT_EQ(stats.cache.analyses_run, 0u);
    std::size_t admitted = 0;
    for (const TenantBudgetStats& tenant : stats.tenants) {
      admitted += tenant.admitted;
    }
    EXPECT_EQ(admitted, sessions);
  };
  serve(first, 3);
  serve(second, 5);
  expect_exact(first, 3);
  expect_exact(second, 5);

  // Both services' admission decisions land in the one shared recorder.
  std::size_t decisions = 0;
  for (const auto& e : registry.recorder().drain()) {
    if (e.type ==
        static_cast<std::uint16_t>(telemetry::WideEventType::kAdmission)) {
      ++decisions;
    }
  }
  EXPECT_EQ(decisions, 3u + 5u);
}

TEST(ProtectionServiceTest, TelemetryRetentionIsBoundedAndLossIsCounted) {
  auto& f = fixture();
  // Pre-populate a disk cache so registration runs no analysis.
  const std::string dir = fresh_dir("retention");
  {
    TemplateCache seeded({dir});
    (void)seeded.get_or_analyze(
        make_template_key(f.aegis.cpu(), *f.secrets[0], f.config),
        f.aegis, [&] { return *f.analysis; });
  }
  telemetry::Registry registry;
  ServiceConfig config;
  config.num_threads = 1;  // admission and sessions on the dispatcher's ring
  config.cache.cache_dir = dir;
  config.governor.default_epsilon_cap = 1e9;  // ample: every window admits
  config.telemetry = &registry;
  ProtectionService svc(config);
  const std::size_t tpl_id = svc.register_template(
      f.aegis, *f.secrets[0], f.secrets, f.config, f.mechanism(), {},
      0xFEEDULL);

  // One session per dispatch batch (submit, then drain), so the number of
  // events each session records is fixed:
  //   service.dispatch + fleet.admission + fleet.session spans   3 x 2
  //   the session's inject.window span                               2
  //   governor.decision and session.rng                              2
  // plus one anomaly.attack alert per session that scores above the
  // threshold, and the service.register_template span (2) once. At 10
  // events a session, the 1000 sessions wrap the dispatcher's ring
  // (ring_capacity() events) nine times over.
  constexpr std::size_t kSlices = 60;
  constexpr std::uint64_t kEventsPerSession = 3 * 2 + 2 + 2;
  std::size_t served = 0;
  const auto serve = [&](std::size_t sessions) {
    for (std::size_t s = 0; s < sessions; ++s, ++served) {
      SessionSubmission sub;
      sub.template_id = tpl_id;
      sub.request = f.request(served % 4, kSlices);
      ASSERT_TRUE(svc.submit(sub));
      svc.drain();
      (void)svc.take_completed();
    }
  };

  serve(10);
  const std::size_t streams_after_10 = registry.recorder().streams().size();
  serve(990);
  EXPECT_EQ(registry.recorder().streams().size(), streams_after_10)
      << "span names must not mint a stream per session";

  const std::vector<telemetry::DrainedEvent> events =
      registry.recorder().drain();
  const std::uint64_t recorded = 2 + served * kEventsPerSession +
                                 svc.attack_monitor().alerts();
  EXPECT_EQ(events.size() + registry.recorder().dropped(), recorded);
  EXPECT_LE(events.size(), registry.recorder().ring_capacity() *
                               registry.recorder().ring_count());

  // Every ring the sessions wrote to wrapped (only the registering thread's
  // ring holds just its one span): the newest ring_capacity events survive,
  // and the loss is counted above.
  std::map<std::uint32_t, std::uint64_t> ring_head;
  for (const auto& e : events) {
    ring_head[e.ring] = std::max(ring_head[e.ring], e.seq + 1);
  }
  const std::vector<std::string> streams = registry.recorder().streams();
  for (const auto& e : events) {
    if (streams.at(e.stream) == "service.register_template") continue;
    EXPECT_GT(ring_head[e.ring], registry.recorder().ring_capacity())
        << "ring " << e.ring << " never wrapped";
  }
  EXPECT_GT(registry.recorder().dropped(), 0u);
}

// Regression: drain() returned once the batch's last session was accounted,
// but the batch's service.dispatch span ended later, at the end of the
// dispatcher's loop body, so a recorder drained right after drain() could
// be one end event short (TelemetryRetentionIsBoundedAndLossIsCounted
// flaked that way). The after_batch hook parks the dispatcher where that
// late span end used to lie ahead of it, which makes the race certain.
TEST(ProtectionServiceTest, DrainReturnsAfterTheBatchSpanHasEnded) {
  auto& f = fixture();
  const std::string dir = fresh_dir("drain_span");
  {
    TemplateCache seeded({dir});
    (void)seeded.get_or_analyze(
        make_template_key(f.aegis.cpu(), *f.secrets[0], f.config), f.aegis,
        [&] { return *f.analysis; });
  }
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    void release() {
      {
        std::lock_guard lock(mu);
        open = true;
      }
      cv.notify_all();
    }
  } gate;
  telemetry::Registry registry;
  ServiceConfig config;
  config.num_threads = 1;
  config.cache.cache_dir = dir;
  config.governor.default_epsilon_cap = 1e9;
  config.telemetry = &registry;
  config.after_batch = [&gate] {
    std::unique_lock lock(gate.mu);
    gate.cv.wait(lock, [&gate] { return gate.open; });
  };
  ProtectionService svc(config);
  // Destroyed before svc, whose shutdown joins the parked dispatcher.
  const std::unique_ptr<Gate, void (*)(Gate*)> release_on_exit(
      &gate, [](Gate* g) { g->release(); });
  const std::size_t tpl_id = svc.register_template(
      f.aegis, *f.secrets[0], f.secrets, f.config, f.mechanism(), {},
      0xFEEDULL);

  SessionSubmission sub;
  sub.template_id = tpl_id;
  sub.request = f.request(0, 20);
  ASSERT_TRUE(svc.submit(sub));
  svc.drain();
  const std::vector<std::string> streams = registry.recorder().streams();
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const auto& e : registry.recorder().drain()) {
    if (streams.at(e.stream) != "service.dispatch") continue;
    const auto type = static_cast<telemetry::WideEventType>(e.type);
    begins += type == telemetry::WideEventType::kSpanBegin ? 1 : 0;
    ends += type == telemetry::WideEventType::kSpanEnd ? 1 : 0;
  }
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u) << "drain() returned before the batch span ended";
}

TEST(ProtectionServiceTest, AegisTopRendersAServiceRun) {
  auto& f = fixture();
  // AEGIS_CPU picks the backend, so the Intel CI leg serves these sessions
  // on the Xeon E5 database; registration analyses afresh on it.
  const core::Aegis aegis(pmu::backend::model_from_env());
  telemetry::Registry registry;
  {
    ServiceConfig config;
    config.num_threads = 2;
    config.governor.default_epsilon_cap = 64.0;  // ample: nothing refused
    config.telemetry = &registry;
    ProtectionService svc(config);
    const std::size_t tpl_id =
        svc.register_template(aegis, *f.secrets[0], f.secrets, f.config,
                              f.mechanism(), {}, 0xFEEDULL);
    constexpr std::size_t kSessions = 4;
    for (std::size_t s = 0; s < kSessions; ++s) {
      SessionSubmission sub;
      sub.template_id = tpl_id;
      sub.request = f.request(s, 60);
      ASSERT_TRUE(svc.submit(sub));
    }
    svc.drain();
    ASSERT_EQ(svc.stats().sessions_completed, kSessions);
  }  // joins the service's threads before aegis_top is forked below

  const std::string dir = fresh_dir("telemetry");
  const std::string dump = dir + "/run.frd";
  const std::string trace = dir + "/trace.json";
  {
    std::ofstream out(dump, std::ios::binary);
    registry.recorder().write_dump(out);
  }
  EXPECT_GT(std::filesystem::file_size(dump), 0u) << dump;

  const auto aegis_top = [&](const std::string& args, const char* log) {
    const std::string command = std::string("\"") + AEGIS_TOP_PATH + "\" " +
                                args + " > \"" + dir + "/" + log + "\" 2>&1";
    return std::system(command.c_str());
  };
  EXPECT_EQ(aegis_top("--recorder \"" + dump + "\" --trace \"" + trace + "\"",
                      "recorder.txt"),
            0);
  std::ifstream in(trace);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NO_THROW((void)telemetry::parse_json(text.str()));
}

}  // namespace
}  // namespace aegis::service
