// The benchmark's own tests: the seeded schedule is deterministic, the
// probes only observe, the staged analysis equals analyze(), and the
// metric and workload names match BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis.hpp"
#include "attack/wfa.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "schedule.hpp"
#include "telemetry/json_reader.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

using namespace aegis;

std::vector<std::unique_ptr<workload::Workload>> small_secrets() {
  attack::WfaScale scale;
  scale.sites = 4;
  scale.slices = 60;
  return attack::make_wfa_secrets(scale);
}

attack::CollectionConfig small_collection(const core::Aegis& engine) {
  attack::CollectionConfig config;
  config.event_ids = engine.backend().attack_events();
  config.traces_per_secret = 2;
  config.seed = 99;
  return config;
}

core::OfflineConfig small_offline() {
  core::OfflineConfig config = core::make_quick_offline_config(5, 2);
  config.profiler.ranking_runs_per_secret = 3;
  config.fuzz_top_events = 4;
  return config;
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 300.0, 2000);
  EXPECT_EQ(a, poisson_schedule(7, 300.0, 2000));
  EXPECT_NE(a, poisson_schedule(8, 300.0, 2000));
  ASSERT_EQ(a.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0.0);
  // 2000 arrivals at 300/s span about 6.7 s.
  EXPECT_NEAR(a.back(), 2000.0 / 300.0, 0.5);
}

TEST(Probes, TimedWorkloadIsOutputNeutral) {
  const core::Aegis engine(isa::CpuModel::kAmdEpyc7252);
  const auto secrets = small_secrets();
  const auto config = small_collection(engine);
  const trace::TraceSet bare =
      attack::collect_traces(engine.database(), secrets, config);

  WorkloadProbe probe;
  const auto wrapped = probe.wrap(secrets);
  const trace::TraceSet decorated =
      attack::collect_traces(engine.database(), wrapped, config);

  ASSERT_EQ(bare.traces.size(), decorated.traces.size());
  for (std::size_t i = 0; i < bare.traces.size(); ++i) {
    EXPECT_EQ(bare.traces[i].samples, decorated.traces[i].samples) << i;
  }
  EXPECT_EQ(bare.labels, decorated.labels);
  EXPECT_EQ(probe.visits.load(), 8u);
  EXPECT_EQ(probe.slices.load(), 8u * 60u);
  EXPECT_GT(probe.gen.work(), 0u);
  EXPECT_GT(probe.gen.busy_seconds(), 0.0);
  EXPECT_EQ(wrapped[1]->name(), secrets[1]->name());
  EXPECT_EQ(wrapped[1]->trace_slices(), secrets[1]->trace_slices());
}

TEST(Probes, TimedAgentsAreOutputNeutral) {
  const core::Aegis engine(isa::CpuModel::kAmdEpyc7252);
  const auto secrets = small_secrets();
  const core::OfflineResult analysis =
      engine.analyze(*secrets.front(), secrets, small_offline());
  dp::MechanismConfig mechanism;
  mechanism.kind = dp::MechanismKind::kLaplace;
  mechanism.epsilon = 0.5;
  const auto config = small_collection(engine);

  // Two obfuscators with one seed hand out identical session streams.
  auto bare_obf = engine.make_obfuscator(analysis, secrets, mechanism, {}, 3);
  auto probed_obf = engine.make_obfuscator(analysis, secrets, mechanism, {}, 3);
  const trace::TraceSet bare = attack::collect_traces(
      engine.database(), secrets, config, [&] { return bare_obf->session(); });
  LayerMeter meter;
  const trace::TraceSet decorated = attack::collect_traces(
      engine.database(), secrets, config,
      timed_agents([&] { return probed_obf->session(); }, meter));

  ASSERT_EQ(bare.traces.size(), decorated.traces.size());
  for (std::size_t i = 0; i < bare.traces.size(); ++i) {
    EXPECT_EQ(bare.traces[i].samples, decorated.traces[i].samples) << i;
  }
  EXPECT_EQ(bare_obf->total_injected_repetitions(),
            probed_obf->total_injected_repetitions());
  EXPECT_EQ(bare_obf->total_noise_draws(), probed_obf->total_noise_draws());
  EXPECT_EQ(meter.work(), 8u * 60u);
}

TEST(Analysis, StagedEqualsAnalyze) {
  const core::Aegis engine(isa::CpuModel::kAmdEpyc7252);
  const auto secrets = small_secrets();
  const core::OfflineConfig config = small_offline();
  StageTimes times;
  const core::OfflineResult staged =
      analyze_staged(engine, secrets, config, times);
  const core::OfflineResult whole =
      engine.analyze(*secrets.front(), secrets, config);
  EXPECT_EQ(fingerprint(staged, engine.database()),
            fingerprint(whole, engine.database()));
  EXPECT_GT(times.warmup_s, 0.0);
  EXPECT_GT(times.fuzz_s, 0.0);
}

telemetry::JsonValue manifest() {
  std::ifstream in(E2EBENCH_MANIFEST);
  std::stringstream text;
  text << in.rdbuf();
  return telemetry::parse_json(text.str());
}

template <std::size_t N>
void expect_metrics_match(const telemetry::JsonValue& declared,
                          const MetricSpec (&specs)[N]) {
  ASSERT_TRUE(declared.is_array());
  ASSERT_EQ(declared.array.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(declared.array[i].at("name").string, specs[i].name);
    EXPECT_EQ(declared.array[i].at("unit").string, specs[i].unit);
  }
}

TEST(Manifest, NamesMatchBenchmarkJson) {
  const telemetry::JsonValue json = manifest();
  expect_metrics_match(json.at("end_to_end"), kGatedMetrics);
  expect_metrics_match(json.at("per_layer"), kLayerMetrics);
  const auto& workloads = json.at("workloads").array;
  ASSERT_EQ(workloads.size(), std::size(kWorkloads));
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].at("name").string, kWorkloads[i].name);
  }
}

}  // namespace
}  // namespace e2ebench
