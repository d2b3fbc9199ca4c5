// Workload offline_analysis: the template server's one-time analysis
// (profile -> rank -> fuzz -> cover) of the WFA secret set at the paper's
// default fuzzer configuration, on both PMU backends.
#include <array>

#include "analysis.hpp"
#include "attack/wfa.hpp"
#include "probes.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace aegis;

/// Nominal length of one pass (both analyses) on a 4-core x86 host.
constexpr double kPassSeconds = 8.0;

constexpr std::array<isa::CpuModel, 2> kBackends = {
    isa::CpuModel::kAmdEpyc7252, isa::CpuModel::kIntelXeonE5_1650};

// Paper defaults: R = 10 repetitions, a 48 x 48 reset/trigger grid, the
// full profiler, and every warm-up survivor fuzzed.
core::OfflineConfig paper_config(const RunOptions& options) {
  core::OfflineConfig config;
  config.profiler.seed = derive(options, 1);
  config.fuzzer.seed = derive(options, 2);
  config.fuzz_top_events = 0;
  config.set_num_threads(options.analysis_workers);
  return config;
}

struct Setup {
  std::vector<std::unique_ptr<core::Aegis>> engines;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
};

Setup make_setup() {
  Setup setup;
  for (const isa::CpuModel model : kBackends) {
    setup.engines.push_back(std::make_unique<core::Aegis>(model));
  }
  setup.secrets = attack::make_wfa_secrets(attack::WfaScale{});
  return setup;
}

struct Pass {
  std::vector<double> backend_s;        // per backend, in kBackends order
  double cpu_s = 0.0;                   // CPU time of both analyses
  std::vector<std::string> fingerprints;
  std::vector<std::size_t> survivors;
  std::vector<std::size_t> cover_gadgets;
  double total_s() const {
    double sum = 0.0;
    for (double s : backend_s) sum += s;
    return sum;
  }
};

void record_outcome(Pass& pass, const core::Aegis& engine,
                    const core::OfflineResult& analysis, double seconds) {
  pass.backend_s.push_back(seconds);
  pass.fingerprints.push_back(fingerprint(analysis, engine.database()));
  pass.survivors.push_back(analysis.warmup.surviving.size());
  pass.cover_gadgets.push_back(analysis.cover.gadgets.size());
}

Pass untraced_pass(const Setup& setup, const core::OfflineConfig& config) {
  Pass pass;
  const double cpu_start = process_cpu_seconds();
  for (const auto& engine : setup.engines) {
    const auto start = Clock::now();
    const core::OfflineResult analysis =
        engine->analyze(*setup.secrets.front(), setup.secrets, config);
    record_outcome(pass, *engine, analysis, seconds_since(start));
  }
  pass.cpu_s = process_cpu_seconds() - cpu_start;
  return pass;
}

}  // namespace

void run_offline_analysis(const RunOptions& options, Result& result) {
  Setup setup;
  // Set-up runs on one thread and starts none: each repeat runs on the next
  // CPU, so that no one vCPU's speed sets setup_s.
  const SetupTimes setup_times = time_setups([&](int i) {
    const PinnedToCpu pin(static_cast<std::size_t>(i));
    setup = make_setup();
  });
  result.provenance("backends", backend_label(*setup.engines[0]) + "," +
                                    backend_label(*setup.engines[1]));
  const core::OfflineConfig config = paper_config(options);

  std::vector<Pass> passes;
  const std::vector<double> pass_times = repeat_passes(options, kPassSeconds, [&] {
    passes.push_back(untraced_pass(setup, config));
    return passes.back().total_s();
  });
  result.provenance("pass_s", join(pass_times));
  const Pass& first = passes.front();

  bool deterministic = true;
  for (const Pass& pass : passes) {
    deterministic = deterministic && pass.fingerprints == first.fingerprints;
  }
  result.check("analysis is identical in every pass", deterministic,
               std::to_string(passes.size()) + " passes");
  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    const std::string id(setup.engines[b]->backend().id());
    result.check(id + " analysis covers vulnerable events",
                 first.survivors[b] > 0 && first.cover_gadgets[b] > 0,
                 std::to_string(first.survivors[b]) + " warm-up survivors, " +
                     std::to_string(first.cover_gadgets[b]) +
                     " cover gadgets");
  }

  const double analyze_s = util::median(pass_times);
  std::vector<double> pass_cpu;
  for (const Pass& pass : passes) pass_cpu.push_back(pass.cpu_s);
  result.provenance("pass_cpu_s", join(pass_cpu));
  record_setup(result, setup_times);
  result.metric("cpu_ms", util::median(pass_cpu) * 1e3, "ms");
  result.metric("latency_ms", analyze_s * 1e3, "ms");
  result.metric("analyze_s", analyze_s, "s");
  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    std::vector<double> times;
    for (const Pass& pass : passes) times.push_back(pass.backend_s[b]);
    result.metric("analyze." + std::string(setup.engines[b]->backend().id()) +
                      "_s",
                  util::median(times), "s");
  }
  result.metric("fail_ratio", 0.0, "ratio");
  result.operations(passes.size() * kBackends.size(), 0);

  if (!options.trace) return;

  // Traced pass: the four public stages, timed, with the secret set
  // decorated; its result must equal the untraced analyze().
  WorkloadProbe probe;
  const auto timed_secrets = probe.wrap(setup.secrets);
  StageTimes stages;
  FuzzTotals fuzz;
  Pass traced;
  for (const auto& engine : setup.engines) {
    const auto start = Clock::now();
    const core::OfflineResult analysis =
        analyze_staged(*engine, timed_secrets, config, stages);
    record_outcome(traced, *engine, analysis, seconds_since(start));
    fuzz.add(analysis.fuzz);
  }
  result.check("traced analysis equals untraced analyze()",
               traced.fingerprints == first.fingerprints);
  record_analysis_layers(result, stages, fuzz);
  result.layer("workload.gen_s", probe.gen.busy_seconds(), "s");
  result.layer("workload.blocks", static_cast<double>(probe.gen.work()),
               "count");
  result.layer("sim.slices", static_cast<double>(probe.slices.load()), "count");
  result.layer("bench.trace_overhead", traced.total_s() / first.total_s() - 1.0,
               "ratio");
}

}  // namespace e2ebench
