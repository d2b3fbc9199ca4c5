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

// Virtual-clock scale for injection-window spans: one monitoring slice
// renders as 1 µs in trace viewers. Purely presentational.
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
                                  tpl.analysis->cover, config);
  sim::SliceAgent agent = obf::coarsen_agent(obfuscator.session(), granularity);
  if (telemetry != nullptr) {
    // Injection-window spans, stamped from the session's virtual clock (the
    // slice index) rather than the registry clock: each noise-refresh fire
    // covers the granularity-wide window it protects. The stream is resolved
    // here, once per session, so the per-slice wrapper only records; it
    // draws no randomness, so traces stay bit-identical with telemetry
    // attached.
    telemetry::SpanTracer* tracer = &telemetry->spans();
    const telemetry::SpanStream stream = tracer->stream("inject.window");
    const std::uint64_t tenant = request.tenant_id;
    const std::size_t window = granularity == 0 ? 1 : granularity;
    agent = [inner = std::move(agent), tracer, stream, tenant,
             window](sim::VirtualMachine& vm, std::size_t t) {
      if (t % window == 0) {
        tracer->record_complete(stream, t * kSliceNs, (t + window) * kSliceNs,
                                static_cast<std::uint32_t>(tenant), tenant);
      }
      inner(vm, t);
    };
  }

  sim::VirtualMachine vm(tpl.vm, util::split_mix64(request.seed, kVmStream));
  sim::HostMonitor monitor(tpl.engine->database(),
                           util::split_mix64(request.seed, kMonitorStream));
  result.trace = monitor.monitor(
      vm, request.application->visit(util::split_mix64(request.seed, kVisitStream)),
      tpl.monitored_events, request.slices, agent);
  result.injected_repetitions = obfuscator.total_injected_repetitions();
  return result;
}

SessionManager::SessionManager(std::size_t num_threads,
                               BudgetGovernor& governor,
                               telemetry::Registry* telemetry)
    : pool_(num_threads),
      governor_(&governor),
      owned_telemetry_(telemetry == nullptr
                           ? std::make_unique<telemetry::Registry>()
                           : nullptr),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()),
      started_(telemetry_->metrics().counter("aegis_sessions_started_total")),
      completed_(
          telemetry_->metrics().counter("aegis_sessions_completed_total")),
      refused_(telemetry_->metrics().counter("aegis_sessions_refused_total")),
      degraded_(telemetry_->metrics().counter("aegis_sessions_degraded_total")),
      active_(telemetry_->metrics().gauge("aegis_sessions_active")),
      rng_event_(telemetry_->recorder().event_handle(
          "session.rng", telemetry::WideEventType::kRngCheckpoint)) {}

SessionManager::~SessionManager() = default;

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
        refused_.inc();
      } else {
        granted[i] = decision.granularity;
        if (decision.outcome == Admission::kDegrade) degraded_.inc();
      }
    }
  }

  // Phase 2 — execution, parallel: each admitted session writes only its
  // own index-keyed slot and derives all randomness from its request seed,
  // so results are bit-identical at every worker count.
  pool_.parallel_for(requests.size(), [&](std::size_t i) {
    if (granted[i] == 0) return;  // refused
    started_.inc();
    active_.add(1.0);
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
    active_.add(-1.0);
    completed_.inc();
  });

  // Phase 3 — attack scoring, serial and in submission order again (the
  // monitor mutates shared gauge/alert state). The HostMonitor reads the
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
