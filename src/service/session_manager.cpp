#include "service/session_manager.hpp"

#include "telemetry/anomaly.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/rng.hpp"

namespace aegis::service {

namespace {

// Fixed stream indices of the per-tenant seed tree. Adding a stream is
// backward-compatible; reordering is not (it would silently change every
// tenant's trace).
enum SeedStream : std::uint64_t {
  kVmStream = 1,
  kMonitorStream = 2,
  kVisitStream = 3,
  kObfuscatorStream = 4,
};

// Virtual-clock scale for the injection span: one monitoring slice renders
// as 1 µs in trace viewers. Purely presentational.
constexpr std::uint64_t kSliceNs = 1000;

}  // namespace

ProtectionTemplate make_protection_template(
    const core::Aegis& engine,
    std::shared_ptr<const core::OfflineResult> analysis,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    dp::MechanismConfig mechanism, core::ObfuscatorBuildOptions options,
    std::uint64_t seed, std::size_t monitor_top_events) {
  ProtectionTemplate tpl;
  tpl.engine = &engine;
  tpl.analysis = std::move(analysis);
  // One calibration pass (runs the secret set); its sized config is the
  // template every session reuses with its own seed.
  const auto calibrated = engine.make_obfuscator(*tpl.analysis, secrets,
                                                 mechanism, options, seed);
  tpl.obf_config = calibrated->config();
  tpl.monitored_events = tpl.analysis->top_events(monitor_top_events);
  return tpl;
}

SessionResult run_protected_session(const ProtectionTemplate& tpl,
                                    const SessionRequest& request,
                                    std::size_t granularity,
                                    telemetry::Registry* telemetry) {
  SessionResult result;
  result.tenant_id = request.tenant_id;
  result.granularity = granularity;

  obf::ObfuscatorConfig config = tpl.obf_config;
  config.seed = util::split_mix64(request.seed, kObfuscatorStream);
  obf::EventObfuscator obfuscator(tpl.engine->database(),
                                  tpl.engine->specification(),
                                  tpl.analysis->cover, std::move(config));
  const sim::SliceAgent agent =
      obf::coarsen_agent(obfuscator.session(), granularity);

  sim::VirtualMachine vm(tpl.vm, util::split_mix64(request.seed, kVmStream));
  sim::HostMonitor monitor(tpl.engine->database(),
                           util::split_mix64(request.seed, kMonitorStream));
  result.trace = monitor.monitor(
      vm, request.application->visit(util::split_mix64(request.seed, kVisitStream)),
      tpl.monitored_events, request.slices, agent);
  if (telemetry != nullptr) {
    // One injection span per session, stamped from the session's virtual
    // clock (the slice index) rather than the registry clock. The refresh
    // cadence is the granularity the session's governor.decision carries.
    telemetry::SpanTracer& tracer = telemetry->spans();
    tracer.record_complete(tracer.stream("inject.window"), 0,
                           request.slices * kSliceNs,
                           static_cast<std::uint32_t>(request.tenant_id),
                           request.tenant_id);
  }
  result.injected_repetitions = obfuscator.total_injected_repetitions();
  result.noise_draws = obfuscator.total_noise_draws();
  return result;
}

SessionManager::SessionManager(std::size_t num_threads,
                               BudgetGovernor& governor,
                               telemetry::Registry* telemetry)
    : pool_(num_threads),
      governor_(&governor),
      telemetry_(&telemetry::resolve(telemetry)),
      rng_event_(telemetry_->recorder().event_handle(
          "session.rng", telemetry::WideEventType::kRngCheckpoint)) {}

std::vector<SessionResult> SessionManager::run_fleet(
    const ProtectionTemplate& tpl,
    const std::vector<SessionRequest>& requests) {
  std::vector<SessionResult> results(requests.size());

  // Phase 1 — admission, serial and in submission order: governor state is
  // shared per tenant, so decision order must not depend on scheduling.
  std::vector<std::size_t> granted(requests.size(), 0);
  {
    telemetry::ScopedSpan admission(telemetry_->spans(), "fleet.admission", 0,
                                    requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const SessionRequest& request = requests[i];
      const AdmissionDecision decision = governor_->request_window(
          request.tenant_id, request.slices, request.per_slice_epsilon);
      results[i].tenant_id = request.tenant_id;
      results[i].outcome = decision.outcome;
      results[i].granularity = decision.granularity;
      results[i].epsilon_after = decision.epsilon_after;
      if (decision.outcome == Admission::kRefuse) {
        refused_.fetch_add(1, std::memory_order_relaxed);
      } else {
        granted[i] = decision.granularity;
        if (decision.outcome == Admission::kDegrade) {
          degraded_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }

  // Phase 2 — execution, parallel: each admitted session writes only its
  // own index-keyed slot and derives all randomness from its request seed,
  // so results are bit-identical at every worker count.
  pool_.parallel_for(requests.size(), [&](std::size_t i) {
    if (granted[i] == 0) return;  // refused
    started_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    telemetry::ScopedSpan span(telemetry_->spans(), "fleet.session",
                               static_cast<std::uint32_t>(i),
                               requests[i].tenant_id);
    // RNG-stream checkpoint: the request seed plus the derived stream seeds
    // this session will consume, stamped with the request index. Wait-free
    // and RNG-free, so the trace stays bit-identical.
    rng_event_.record(
        /*t_ns=*/i, requests[i].seed,
        util::split_mix64(requests[i].seed, kVmStream),
        util::split_mix64(requests[i].seed, kMonitorStream),
        util::split_mix64(requests[i].seed, kObfuscatorStream),
        static_cast<std::uint32_t>(requests[i].tenant_id));
    const Admission outcome = results[i].outcome;
    const double epsilon_after = results[i].epsilon_after;
    results[i] = run_protected_session(tpl, requests[i], granted[i], telemetry_);
    results[i].outcome = outcome;
    results[i].epsilon_after = epsilon_after;
    noise_draws_.fetch_add(results[i].noise_draws, std::memory_order_relaxed);
    active_.fetch_sub(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
  });

  // Phase 3 — attack scoring, serial and in submission order again (the
  // monitor records alerts in order). The HostMonitor reads the
  // template's monitored set exactly once per slice, i.e. perfectly
  // periodically (read_gap_cv = 0), with no single-stepping.
  if (attack_monitor_ != nullptr) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (granted[i] == 0) continue;
      telemetry::SessionFeatures features;
      features.tenant_id = requests[i].tenant_id;
      features.monitored_events = tpl.monitored_events;
      features.read_gap_cv = 0.0;
      features.stepped_fraction = 0.0;
      features.slices = requests[i].slices;
      attack_monitor_->ingest(features);
    }
  }
  return results;
}

}  // namespace aegis::service
