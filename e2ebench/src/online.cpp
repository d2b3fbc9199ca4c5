// Workload online_attack: the paper's Fig. 9a loop at its default scale.
// Set-up is the offline analysis; the timed phase trains WFA and MEA on
// clean traces, exploits them undefended, then builds an obfuscator for
// four defended points and exploits both attacks through its sessions.
#include <algorithm>
#include <array>

#include "analysis.hpp"
#include "attack/mea.hpp"
#include "attack/wfa.hpp"
#include "probes.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace aegis;

/// One pass per this many seconds of --seconds. A pass takes 4-8 s on a
/// 4-core x86 host; 8 passes at 20 s run every CPU of such a host twice.
constexpr double kPassSeconds = 2.5;
constexpr std::size_t kSlices = 200;
constexpr std::size_t kWfaVisits = 2;
constexpr std::size_t kMeaRuns = 1;

struct DefendedPoint {
  dp::MechanismKind kind;
  double epsilon;
};
constexpr std::array<DefendedPoint, 4> kPoints = {{
    {dp::MechanismKind::kLaplace, 0.25},
    {dp::MechanismKind::kLaplace, 2.0},
    {dp::MechanismKind::kDStar, 0.25},
    {dp::MechanismKind::kDStar, 2.0},
}};

attack::WfaScale wfa_scale() {
  attack::WfaScale scale;
  scale.sites = 45;
  scale.traces_per_site = 16;
  scale.epochs = 25;
  scale.slices = kSlices;
  return scale;
}

attack::ClassificationAttackConfig wfa_config(const core::Aegis& engine,
                                              const RunOptions& options) {
  return attack::make_wfa_config(engine.backend().attack_events(), wfa_scale(),
                                 derive(options, 10));
}

// The fig9a analysis: the quick offline config with every survivor fuzzed.
core::OfflineConfig setup_config(const RunOptions& options) {
  core::OfflineConfig config = core::make_quick_offline_config(
      derive(options, 1), options.analysis_workers);
  config.profiler.ranking_runs_per_secret = 5;
  config.fuzzer.reset_sample = 40;
  config.fuzzer.trigger_sample = 40;
  config.fuzz_top_events = 0;
  return config;
}

struct Setup {
  core::Aegis engine{isa::CpuModel::kAmdEpyc7252};
  std::vector<std::unique_ptr<workload::Workload>> secrets =
      attack::make_wfa_secrets(wfa_scale());
  core::OfflineResult analysis;
};

/// Per-layer probes and call timers of a traced pass.
struct Probes {
  WorkloadProbe workload;
  LayerMeter agent;
  double wfa_train_s = 0.0;
  double mea_train_s = 0.0;
  double wfa_exploit_s = 0.0;
  double mea_exploit_s = 0.0;
  double calibrate_s = 0.0;
};

/// Every deterministic output of one pass.
struct Outcome {
  double wfa_clean = 0.0;
  double mea_clean = 0.0;
  std::vector<double> wfa_defended;
  std::vector<double> mea_defended;
  double injected_reps = 0.0;
  double noise_draws = 0.0;
  double sessions = 0.0;

  bool operator==(const Outcome&) const = default;
  double protected_slices() const { return sessions * kSlices; }
};

template <typename Fn>
auto timed(double* seconds, Fn&& fn) {
  const auto start = Clock::now();
  auto value = fn();
  if (seconds != nullptr) *seconds += seconds_since(start);
  return value;
}

/// One pass of the timed phase; `probes` null = untraced.
Outcome online_pass(const Setup& setup, const RunOptions& options,
                    Probes* probes) {
  const auto& db = setup.engine.database();
  const auto events = setup.engine.backend().attack_events();
  std::vector<std::unique_ptr<workload::Workload>> wrapped;
  if (probes != nullptr) wrapped = probes->workload.wrap(setup.secrets);
  const auto& secrets = probes != nullptr ? wrapped : setup.secrets;
  auto field = [&](double Probes::*member) {
    return probes != nullptr ? &(probes->*member) : nullptr;
  };

  attack::ClassificationAttack wfa(db, wfa_config(setup.engine, options));
  timed(field(&Probes::wfa_train_s), [&] { return wfa.train(secrets); });

  attack::MeaConfig mea_config;
  mea_config.event_ids = events;
  mea_config.scale.models = 12;
  mea_config.scale.traces_per_model = 8;
  mea_config.scale.epochs = 14;
  mea_config.scale.slices = kSlices;
  mea_config.seed = derive(options, 11);
  attack::MeaAttack mea(db, mea_config);
  timed(field(&Probes::mea_train_s), [&] { return mea.train(); });

  Outcome out;
  out.wfa_clean = timed(field(&Probes::wfa_exploit_s), [&] {
    return wfa.exploit(secrets, kWfaVisits, derive(options, 12));
  });
  out.mea_clean = timed(field(&Probes::mea_exploit_s), [&] {
    return mea.exploit(kMeaRuns, derive(options, 13));
  });

  for (std::size_t p = 0; p < kPoints.size(); ++p) {
    dp::MechanismConfig mechanism;
    mechanism.kind = kPoints[p].kind;
    mechanism.epsilon = kPoints[p].epsilon;
    auto obfuscator = timed(field(&Probes::calibrate_s), [&] {
      return setup.engine.make_obfuscator(setup.analysis, setup.secrets,
                                          mechanism, {},
                                          derive(options, 20 + p));
    });
    attack::AgentFactory factory = [&obfuscator] {
      return obfuscator->session();
    };
    if (probes != nullptr) factory = timed_agents(factory, probes->agent);
    out.wfa_defended.push_back(timed(field(&Probes::wfa_exploit_s), [&] {
      return wfa.exploit(secrets, kWfaVisits, derive(options, 30 + p), factory);
    }));
    out.mea_defended.push_back(timed(field(&Probes::mea_exploit_s), [&] {
      return mea.exploit(kMeaRuns, derive(options, 40 + p), factory);
    }));
    out.injected_reps += obfuscator->total_injected_repetitions();
    out.noise_draws += static_cast<double>(obfuscator->total_noise_draws());
    out.sessions += static_cast<double>(obfuscator->sessions_started());
  }
  return out;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

void run_online_attack(const RunOptions& options, Result& result) {
  const core::OfflineConfig config = setup_config(options);
  std::vector<core::OfflineResult> analyses;
  std::unique_ptr<Setup> setup;
  const SetupTimes setup_times = time_setups([&](int) {
    setup = std::make_unique<Setup>();
    setup->analysis =
        setup->engine.analyze(*setup->secrets.front(), setup->secrets, config);
    analyses.push_back(setup->analysis);
  });
  std::vector<std::string> setup_prints;
  for (const core::OfflineResult& analysis : analyses) {
    setup_prints.push_back(fingerprint(analysis, setup->engine.database()));
  }
  result.provenance("backends", backend_label(setup->engine));
  result.check("set-up analysis is identical in every repeat",
               std::all_of(setup_prints.begin(), setup_prints.end(),
                           [&](const std::string& p) {
                             return p == setup_prints.front();
                           }));

  // A pass runs on one thread: each pass runs on the next CPU, and cpu_ms
  // is their mean, so that no one vCPU's speed sets it.
  std::vector<Outcome> outcomes;
  std::vector<double> pass_cpu;
  const std::vector<double> pass_times = repeat_passes(options, kPassSeconds, [&] {
    const PinnedToCpu pin(outcomes.size());
    const auto start = Clock::now();
    const double cpu_start = process_cpu_seconds();
    outcomes.push_back(online_pass(*setup, options, nullptr));
    pass_cpu.push_back(process_cpu_seconds() - cpu_start);
    return seconds_since(start);
  });
  result.provenance("pass_s", join(pass_times));
  result.provenance("pass_cpu_s", join(pass_cpu));
  const Outcome& first = outcomes.front();

  result.check("outputs are identical in every pass",
               std::all_of(outcomes.begin(), outcomes.end(),
                           [&](const Outcome& o) { return o == first; }),
               std::to_string(outcomes.size()) + " passes");
  const double chance = 1.0 / static_cast<double>(wfa_scale().sites);
  result.check("undefended WFA accuracy well above chance",
               first.wfa_clean >= 0.8,
               "accuracy " + std::to_string(first.wfa_clean) + ", chance " +
                   std::to_string(chance));
  result.check("undefended MEA accuracy well above chance",
               first.mea_clean >= 0.6,
               "accuracy " + std::to_string(first.mea_clean));
  const double wfa_defended = mean(first.wfa_defended);
  const double mea_defended = mean(first.mea_defended);
  result.check("defense lowers WFA accuracy",
               wfa_defended <= 0.5 * first.wfa_clean,
               "defended mean " + std::to_string(wfa_defended));
  result.check("defense lowers MEA accuracy",
               mea_defended <= 0.75 * first.mea_clean,
               "defended mean " + std::to_string(mea_defended));

  const double online_s = util::median(pass_times);
  record_setup(result, setup_times);
  result.metric("cpu_ms", mean(pass_cpu) * 1e3, "ms");
  result.metric("latency_ms", online_s * 1e3, "ms");
  result.metric("online_s", online_s, "s");
  result.metric("wfa_clean_acc", first.wfa_clean, "ratio");
  result.metric("mea_clean_acc", first.mea_clean, "ratio");
  result.metric("wfa_defended_acc", wfa_defended, "ratio");
  result.metric("mea_defended_acc", mea_defended, "ratio");
  result.metric("defense_reps_per_slice",
                first.injected_reps / first.protected_slices(), "reps/slice");
  result.metric("fail_ratio", 0.0, "ratio");
  result.operations(outcomes.size(), 0);

  if (!options.trace) return;

  // Traced set-up stages (the same analysis, staged) and one traced pass.
  StageTimes stages;
  const core::OfflineResult staged =
      analyze_staged(setup->engine, setup->secrets, config, stages);
  result.check("traced set-up analysis equals untraced analyze()",
               fingerprint(staged, setup->engine.database()) ==
                   setup_prints.front());
  FuzzTotals fuzz;
  fuzz.add(staged.fuzz);
  record_analysis_layers(result, stages, fuzz);

  Probes probes;
  const auto start = Clock::now();
  const Outcome traced = online_pass(*setup, options, &probes);
  const double traced_s = seconds_since(start);
  result.check("traced pass gives the untraced outputs", traced == first);
  result.check("every protected slice ran the agent",
               static_cast<double>(probes.agent.work()) ==
                   traced.protected_slices(),
               std::to_string(probes.agent.work()) + " agent calls");

  // One extra collection on the WFA training config splits wfa_train into
  // collection and featurise + MLP fit, and collection into workload
  // generation and the VM/monitor path.
  const double gen_before = probes.workload.gen.busy_seconds();
  const double blocks = static_cast<double>(probes.workload.gen.work());
  const double traces = static_cast<double>(probes.workload.visits.load());
  const double slices = static_cast<double>(probes.workload.slices.load());
  const auto collect_secrets = probes.workload.wrap(setup->secrets);
  const auto collect_start = Clock::now();
  (void)attack::collect_traces(setup->engine.database(), collect_secrets,
                               wfa_config(setup->engine, options).collection);
  const double collect_s = seconds_since(collect_start);
  const double collect_gen_s = probes.workload.gen.busy_seconds() - gen_before;

  result.layer("workload.gen_s", gen_before, "s");
  result.layer("workload.blocks", blocks, "count");
  result.layer("obf.calibrate_s", probes.calibrate_s, "s");
  result.layer("obf.agent_s", probes.agent.busy_seconds(), "s");
  result.layer("obf.agent_calls", static_cast<double>(probes.agent.work()),
               "count");
  result.layer("obf.noise_draws", traced.noise_draws, "count");
  result.layer("obf.injected_reps", traced.injected_reps, "count");
  result.layer("attack.collect_s", collect_s, "s");
  result.layer("attack.wfa_train_s", probes.wfa_train_s, "s");
  result.layer("attack.wfa_exploit_s", probes.wfa_exploit_s, "s");
  result.layer("attack.mea_train_s", probes.mea_train_s, "s");
  result.layer("attack.mea_exploit_s", probes.mea_exploit_s, "s");
  result.layer("attack.traces", traces, "count");
  result.layer("sim.slices", slices, "count");
  result.layer("ml.mlp_fit_s", probes.wfa_train_s - collect_s, "s");
  result.layer("sim.monitor_self_s", collect_s - collect_gen_s, "s");
  result.layer("bench.trace_overhead", traced_s / online_s - 1.0, "ratio");
}

}  // namespace e2ebench
