// Workload service_open_loop: the protection service under an open-loop
// Poisson load. Set-up registers the protection template into a fresh
// cache directory; the timed phase drives many short sessions of many
// tenants at two fixed offered rates and times each from its due time.
#include <algorithm>
#include <array>
#include <filesystem>
#include <iostream>
#include <thread>

#include "attack/wfa.hpp"
#include "analysis.hpp"
#include "probes.hpp"
#include "schedule.hpp"
#include "service/protection_service.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

using namespace aegis;

constexpr std::size_t kSessionSlices = 60;
constexpr std::size_t kTenants = 64;
constexpr double kPerSliceEpsilon = 0.05;
/// Session latency limit, from due time to completion.
constexpr double kLatencyLimitMs = 25.0;
/// A run whose generator's p99 lateness exceeds this is flagged.
constexpr double kGeneratorLateLimitMs = 2.0;

/// An offered rate; each runs for half of the run's --seconds, so a run
/// serves a fixed number of sessions.
struct Rate {
  const char* name;
  double sessions_per_s;
  std::size_t sessions(const RunOptions& options) const {
    return static_cast<std::size_t>(sessions_per_s * options.seconds / 2.0);
  }
};
constexpr std::array<Rate, 2> kRates = {{
    {"svc_low", 200.0},
    {"svc_high", 500.0},
}};

// The protected application and its template are fixed parts of the
// workload, so every seed serves sessions of equal cost; the seed varies
// the traffic: tenants, session seeds and arrival times.
constexpr std::uint64_t kTemplateSeed = 0xFEED;

core::OfflineConfig template_config(const RunOptions& options) {
  core::OfflineConfig config =
      core::make_quick_offline_config(11, options.analysis_workers);
  config.profiler.ranking_runs_per_secret = 3;
  config.fuzz_top_events = 12;
  return config;
}

// Members are destroyed bottom-up: the service (which runs sessions that
// point at the engine and the secrets) goes first.
struct Setup {
  core::Aegis engine{isa::CpuModel::kAmdEpyc7252};
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  std::unique_ptr<service::ProtectionService> svc;
  std::size_t template_id = 0;
  double register_s = 0.0;
  service::TemplateCacheStats cache;
};

std::unique_ptr<Setup> make_setup(const RunOptions& options,
                                  const std::string& cache_dir) {
  auto setup = std::make_unique<Setup>();
  attack::WfaScale scale;
  scale.sites = 4;
  scale.slices = 100;
  setup->secrets = attack::make_wfa_secrets(scale);

  std::filesystem::create_directories(cache_dir);
  service::ServiceConfig config;
  config.num_threads = options.service_workers;
  config.queue_capacity = 64;
  config.batch_size = 16;
  config.governor.default_epsilon_cap = 1e9;  // ample: nothing is refused
  config.cache.cache_dir = cache_dir;
  setup->svc = std::make_unique<service::ProtectionService>(config);

  dp::MechanismConfig mechanism;
  mechanism.kind = dp::MechanismKind::kLaplace;
  mechanism.epsilon = kPerSliceEpsilon;
  const auto start = Clock::now();
  setup->template_id = setup->svc->register_template(
      setup->engine, *setup->secrets.front(), setup->secrets,
      template_config(options), mechanism, {}, kTemplateSeed);
  setup->register_s = seconds_since(start);
  setup->cache = setup->svc->stats().cache;
  return setup;
}

/// The deterministic outputs of one session.
struct SessionOutcome {
  service::Admission admission = service::Admission::kRefuse;
  std::size_t granularity = 0;
  double injected_reps = 0.0;

  bool operator==(const SessionOutcome&) const = default;
};

/// Everything measured for one offered rate in one pass.
struct RatePhase {
  std::vector<service::SessionRequest> requests;
  std::vector<double> lateness_s;   // submit start - due
  std::vector<double> submit_s;     // time blocked inside submit()
  std::vector<double> sojourn_s;    // due -> completion
  std::vector<SessionOutcome> outcomes;
  /// Counter traces of every kTraceStride-th session (traced passes only).
  std::vector<std::vector<std::vector<double>>> sampled_traces;
  std::size_t refused = 0;
  std::size_t lost = 0;
  double wall_s = 0.0;              // first due -> drained

  double injected_reps() const {
    double sum = 0.0;
    for (const auto& o : outcomes) sum += o.injected_reps;
    return sum;
  }
};

/// A traced pass keeps the trace of every kTraceStride-th session, and
/// that sample is rerun standalone.
constexpr std::size_t kTraceStride = 64;

std::vector<service::SessionRequest> make_requests(
    const RunOptions& options, std::size_t rate_index,
    const std::vector<const workload::Workload*>& applications) {
  const Rate& rate = kRates[rate_index];
  util::Rng rng(derive(options, 100 + rate_index));
  std::vector<service::SessionRequest> requests(rate.sessions(options));
  for (auto& request : requests) {
    request.tenant_id = rng.next_u64() % kTenants;
    request.seed = rng.next_u64();
    request.application = applications[rng.next_u64() % applications.size()];
    request.slices = kSessionSlices;
    request.per_slice_epsilon = kPerSliceEpsilon;
  }
  return requests;
}

/// Drives one rate's schedule open-loop from this thread, then drains.
RatePhase run_rate(Setup& setup, const RunOptions& options,
                   std::size_t rate_index,
                   const std::vector<const workload::Workload*>& applications,
                   bool keep_sample) {
  const Rate& rate = kRates[rate_index];
  RatePhase phase;
  phase.requests = make_requests(options, rate_index, applications);
  const std::vector<double> due = poisson_schedule(
      derive(options, 200 + rate_index), rate.sessions_per_s,
      rate.sessions(options));

  // One dispatcher pops the FIFO queue in order and a single template keeps
  // batches in order, so completions arrive in submission order. They are
  // absorbed as the run goes, which keeps finished traces from piling up.
  auto absorb = [&](std::vector<service::CompletedSession> done) {
    for (service::CompletedSession& session : done) {
      const std::size_t i = phase.outcomes.size();
      const service::SessionResult& r = session.result;
      if (i >= phase.lateness_s.size() ||
          r.tenant_id != phase.requests[i].tenant_id) {
        ++phase.lost;
        continue;
      }
      if (r.outcome == service::Admission::kRefuse) ++phase.refused;
      phase.sojourn_s.push_back(phase.lateness_s[i] + session.latency_seconds);
      phase.outcomes.push_back({r.outcome, r.granularity, r.injected_repetitions});
      if (keep_sample && i % kTraceStride == 0) {
        phase.sampled_traces.push_back(r.trace.samples);
      }
    }
  };

  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < phase.requests.size(); ++i) {
    const auto due_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(due_at);
    const auto submit_start = Clock::now();
    service::SessionSubmission submission;
    submission.template_id = setup.template_id;
    submission.request = phase.requests[i];
    if (!setup.svc->submit(submission)) ++phase.lost;
    phase.lateness_s.push_back(
        std::chrono::duration<double>(submit_start - due_at).count());
    phase.submit_s.push_back(seconds_since(submit_start));
    if (i % 256 == 255) absorb(setup.svc->take_completed());
  }
  setup.svc->drain();
  phase.wall_s = seconds_since(t0);
  absorb(setup.svc->take_completed());
  phase.lost += phase.requests.size() - phase.outcomes.size();
  return phase;
}

struct Pass {
  std::vector<RatePhase> rates;
};

Pass service_pass(Setup& setup, const RunOptions& options,
                  const std::vector<const workload::Workload*>& applications,
                  bool keep_sample = false) {
  Pass pass;
  for (std::size_t r = 0; r < kRates.size(); ++r) {
    pass.rates.push_back(
        run_rate(setup, options, r, applications, keep_sample));
  }
  return pass;
}

double ms(double seconds) { return seconds * 1e3; }

/// Deterministic outputs of a pass: every session's admission and noise.
std::vector<SessionOutcome> outputs(const Pass& pass) {
  std::vector<SessionOutcome> out;
  for (const RatePhase& phase : pass.rates) {
    out.insert(out.end(), phase.outcomes.begin(), phase.outcomes.end());
  }
  return out;
}

std::vector<const workload::Workload*> pointers(
    const std::vector<std::unique_ptr<workload::Workload>>& secrets) {
  std::vector<const workload::Workload*> out;
  for (const auto& s : secrets) out.push_back(s.get());
  return out;
}

}  // namespace

void run_service_open_loop(const RunOptions& options, Result& result) {
  std::unique_ptr<Setup> setup;
  bool fresh = true;
  const SetupTimes setup_times = time_setups([&](int i) {
    setup.reset();
    setup = make_setup(options,
                       options.workdir + "/template-cache-" + std::to_string(i));
    fresh = fresh && setup->cache.analyses_run == 1 &&
            setup->cache.warm_starts == 0;
  });
  result.provenance("backends", backend_label(setup->engine));
  result.provenance("service_workers", std::to_string(options.service_workers));
  result.provenance("generator_threads", "1");
  result.provenance("dispatcher_threads", "1");
  result.provenance("registration", fresh ? "analysed" : "warm-start");
  result.check("every set-up analysed into a fresh template cache", fresh);

  // One open-loop pass: its schedule, not a repeat count, fills --seconds.
  const double cpu_start = process_cpu_seconds();
  const Pass pass = service_pass(*setup, options, pointers(setup->secrets));
  const double pass_cpu_s = process_cpu_seconds() - cpu_start;

  std::size_t submitted = 0;
  std::size_t failed = 0;
  double reps = 0.0;
  double protected_slices = 0.0;
  std::vector<double> late_ms;
  double high_p50_ms = 0.0;
  for (std::size_t r = 0; r < kRates.size(); ++r) {
    const RatePhase& phase = pass.rates[r];
    submitted += phase.requests.size();
    failed += phase.refused + phase.lost;
    std::vector<double> sojourn;
    double within_limit = 0.0;
    // Percentiles cover admitted sessions; a refused one misses the limit
    // and counts in fail_ratio.
    for (std::size_t i = 0; i < phase.sojourn_s.size(); ++i) {
      if (phase.outcomes[i].admission == service::Admission::kRefuse) continue;
      sojourn.push_back(ms(phase.sojourn_s[i]));
      protected_slices += kSessionSlices;
      if (sojourn.back() <= kLatencyLimitMs) within_limit += 1.0;
    }
    for (double late : phase.lateness_s) late_ms.push_back(ms(late));
    reps += phase.injected_reps();
    const std::string name = kRates[r].name;
    const double p50 = util::quantile(sojourn, 0.50);
    result.metric(name + ".p50_ms", p50, "ms");
    result.metric(name + ".p99_ms", util::quantile(sojourn, 0.99), "ms");
    result.metric(name + ".goodput_sps", within_limit / phase.wall_s, "1/s");
    if (r + 1 == kRates.size()) high_p50_ms = p50;
  }
  const service::ServiceStats stats = setup->svc->stats();
  result.check("completed + refused == submitted",
               stats.sessions_completed + stats.sessions_refused == submitted &&
                   stats.sessions_submitted == submitted,
               std::to_string(stats.sessions_completed) + " completed, " +
                   std::to_string(stats.sessions_refused) + " refused, " +
                   std::to_string(submitted) + " submitted");
  const double late_p99_ms = util::quantile(late_ms, 0.99);
  const bool behind = late_p99_ms > kGeneratorLateLimitMs;
  result.provenance("generator_behind", behind ? "yes" : "no");
  if (behind) {
    std::cout << "WARNING: the open-loop generator fell behind its schedule "
                 "(p99 lateness "
              << late_p99_ms << " ms); latencies of this run overstate the "
                 "service's own delay\n";
  }

  record_setup(result, setup_times);
  result.metric("cpu_ms", ms(pass_cpu_s) / static_cast<double>(submitted), "ms");
  result.metric("latency_ms", high_p50_ms, "ms");
  result.metric("defense_reps_per_slice", reps / protected_slices,
                "reps/slice");
  result.metric("fail_ratio",
                static_cast<double>(failed) / static_cast<double>(submitted),
                "ratio");
  result.operations(submitted, failed);

  if (!options.trace) return;

  // Traced pass: the applications are decorated; then a sample of the
  // high-rate requests runs standalone, outside the service.
  WorkloadProbe probe;
  const auto wrapped = probe.wrap(setup->secrets);
  const Pass traced =
      service_pass(*setup, options, pointers(wrapped), /*keep_sample=*/true);
  result.check("traced pass gives the untraced admissions and noise",
               outputs(traced) == outputs(pass));

  // The sampled sessions rerun standalone, with the bare applications.
  const RatePhase& high = traced.rates.back();
  const service::ProtectionTemplate& tpl =
      setup->svc->protection_template(setup->template_id);
  std::vector<double> session_ms;
  bool identical = true;
  for (std::size_t k = 0; k < high.sampled_traces.size(); ++k) {
    const std::size_t i = k * kTraceStride;
    const SessionOutcome& fleet = high.outcomes[i];
    if (fleet.admission == service::Admission::kRefuse) continue;
    const auto start = Clock::now();
    const service::SessionResult alone = service::run_protected_session(
        tpl, pass.rates.back().requests[i], fleet.granularity);
    session_ms.push_back(ms(seconds_since(start)));
    identical = identical && alone.trace.samples == high.sampled_traces[k] &&
                alone.injected_repetitions == fleet.injected_reps;
  }
  result.check("standalone sessions equal their fleet runs", identical,
               std::to_string(session_ms.size()) + " sampled sessions");

  std::vector<double> traced_sojourn;
  std::vector<double> submit_ms;
  std::vector<double> traced_late;
  for (const RatePhase& phase : traced.rates) {
    for (double s : phase.submit_s) submit_ms.push_back(ms(s));
    for (double s : phase.lateness_s) traced_late.push_back(ms(s));
  }
  for (double s : high.sojourn_s) traced_sojourn.push_back(ms(s));
  const double session_p50 = util::quantile(session_ms, 0.50);
  const double traced_p50 = util::quantile(traced_sojourn, 0.50);

  FuzzTotals fuzz;
  fuzz.add(tpl.analysis->fuzz);
  StageTimes stages;
  stages.warmup_s = tpl.analysis->warmup.wall_seconds;
  record_analysis_layers(result, stages, fuzz);
  result.layer("workload.gen_s", probe.gen.busy_seconds(), "s");
  result.layer("workload.blocks", static_cast<double>(probe.gen.work()), "count");
  result.layer("sim.slices", static_cast<double>(probe.slices.load()), "count");
  double traced_reps = 0.0;
  for (const RatePhase& phase : traced.rates) traced_reps += phase.injected_reps();
  result.layer("obf.injected_reps", traced_reps, "count");
  result.layer("service.register_s", setup->register_s, "s");
  result.layer("service.submit_block_ms", util::quantile(submit_ms, 0.99), "ms");
  result.layer("service.refused", static_cast<double>(stats.sessions_refused),
               "count");
  result.layer("service.degraded", static_cast<double>(stats.sessions_degraded),
               "count");
  result.layer("service.session_ms", session_p50, "ms");
  result.layer("service.queue_wait_ms", traced_p50 - session_p50, "ms");
  result.layer("bench.gen_late_ms", util::quantile(traced_late, 0.99), "ms");
  result.layer("bench.trace_overhead", traced_p50 / high_p50_ms - 1.0, "ratio");
}

}  // namespace e2ebench
