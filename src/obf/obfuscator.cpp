#include "obf/obfuscator.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/group_sweep.hpp"
#include "telemetry/registry.hpp"

namespace aegis::obf {

sim::SliceAgent coarsen_agent(sim::SliceAgent inner, std::size_t granularity) {
  if (granularity <= 1) return inner;
  return [inner = std::move(inner), granularity](sim::VirtualMachine& vm,
                                                 std::size_t t) {
    if (t % granularity == 0) inner(vm, t);
  };
}

namespace {

/// Streamed mean, sample variance (Welford) and peak of one event's
/// per-slice deltas.
struct Moments {
  std::size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double peak = 0.0;  // deltas are clamped at zero, so 0 is the empty max

  void add(double x) noexcept {
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
    peak = std::max(peak, x);
  }
  /// Pools `other`'s samples into these (Chan et al.'s pairwise update).
  void merge(const Moments& other) noexcept {
    if (other.n == 0) return;
    if (n == 0) {
      *this = other;
      return;
    }
    const double total = static_cast<double>(n + other.n);
    const double d = other.mean - mean;
    mean += d * static_cast<double>(other.n) / total;
    m2 += other.m2 +
          d * d * static_cast<double>(n) * static_cast<double>(other.n) / total;
    n += other.n;
    peak = std::max(peak, other.peak);
  }
  double stddev() const noexcept {
    return n < 2 ? 0.0 : std::sqrt(m2 / static_cast<double>(n - 1));
  }
};

/// One run's moments per event.
struct RunMoments {
  std::vector<Moments> events;
  void slice(std::size_t, std::span<const double> delta) noexcept {
    for (std::size_t e = 0; e < delta.size(); ++e) events[e].add(delta[e]);
  }
  void finish(std::span<const double>) const noexcept {}
};

}  // namespace

// aegis-rng: stream(obfuscator-calibrate-events)
std::vector<EventCalibration> calibrate_events(
    const pmu::EventDatabase& db, const std::vector<std::uint32_t>& event_ids,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    std::size_t runs_per_secret, std::uint64_t seed,
    const sim::VmConfig& vm_config) {
  const std::vector<sim::SweepJob> jobs =
      sim::secret_jobs(secrets, runs_per_secret, "calibrate_events");
  const std::vector<RunMoments> runs = sim::sweep_groups(
      db, event_ids, jobs, util::Rng(seed),
      [&](std::size_t) {
        return RunMoments{std::vector<Moments>(event_ids.size())};
      },
      {vm_config});
  if (runs.empty()) return {};

  std::vector<EventCalibration> calibrations(event_ids.size());
  for (std::size_t e = 0; e < event_ids.size(); ++e) {
    Moments pooled;
    for (const RunMoments& run : runs) pooled.merge(run.events[e]);
    calibrations[e].event_id = event_ids[e];
    calibrations[e].mean = pooled.mean;
    calibrations[e].stddev = pooled.stddev();
    calibrations[e].peak = pooled.peak;
  }
  return calibrations;
}

void validate_build(const dp::MechanismConfig& mechanism,
                    const ObfuscatorOptions& options, const char* caller) {
  // A negative clip bound would invert the injector's clamp.
  if (!(std::isfinite(options.clip_sigma) && options.clip_sigma > 0.0)) {
    throw std::invalid_argument(std::string(caller) +
                                ": clip_sigma must be finite and > 0");
  }
  (void)dp::make_mechanism(mechanism);
}

EventObfuscator::EventObfuscator(const pmu::EventDatabase& db,
                                 const isa::IsaSpecification& spec,
                                 ObfuscatorConfig config)
    : spec_(&spec),
      reference_(&db.by_id(config.segment.reference_event)),
      noise_unit_(config.segment.reference_sigma > 0.0
                      ? config.segment.reference_sigma
                      : 1.0),
      config_(std::move(config)),
      session_seeds_(config_.seed ^ 0x0BF5ULL),
      rotation_event_(telemetry::Registry::global().recorder().event_handle(
          "plan.rotation", telemetry::WideEventType::kPlanRotation)),
      rng_event_(telemetry::Registry::global().recorder().event_handle(
          "obfuscator.rng", telemetry::WideEventType::kRngCheckpoint)) {}

// aegis-rng: stream(obfuscator-session)
sim::SliceAgent EventObfuscator::session() {
  ++sessions_;
  dp::MechanismConfig mech = config_.mechanism;
  mech.seed = session_seeds_.next_u64();
  // RNG-stream checkpoint: with the session ordinal and the derived seed a
  // dump reader can replay exactly which mechanism randomness this session
  // consumed (seed derivation itself is untouched — the record draws none).
  const ObfuscatorOptions& options = config_.options;
  rng_event_.record(/*t_ns=*/sessions_, mech.seed, config_.seed,
                    static_cast<std::uint64_t>(options.rotate));

  const CalibratedSegment& segment = config_.segment;

  // Fixed plan: one injector for the whole session. Rotating plan: one
  // injector per variant; the schedule picks which one realizes slice t's
  // noise. Every variant keeps the base gadget list, so the stream count —
  // and with it the number of DP releases — is identical either way.
  auto injectors =
      std::make_shared<std::vector<std::unique_ptr<NoiseInjector>>>();
  std::shared_ptr<RotatingPlan> plan;
  if (options.rotate) {
    RotatingPlanConfig rotation = options.rotation;
    rotation.seed = session_seeds_.next_u64() ^ rotation.seed;
    plan = std::make_shared<RotatingPlan>(segment.gadgets, rotation);
    for (std::size_t v = 0; v < plan->variants(); ++v) {
      injectors->push_back(std::make_unique<NoiseInjector>(
          *spec_, plan->segment(v), segment.unit_reps, options.clip_sigma));
    }
  } else {
    injectors->push_back(std::make_unique<NoiseInjector>(
        *spec_, segment.gadgets, segment.unit_reps, options.clip_sigma));
  }

  // One independent noise stream per gadget: a single stream would put all
  // injected counts on one fixed direction in event space, which a
  // defense-aware attacker could project out (see NoiseInjector::
  // inject_mixture).
  const std::size_t streams =
      options.single_stream ? 1 : injectors->front()->gadget_count();
  auto calculators = std::make_shared<std::vector<NoiseCalculator>>();
  for (std::size_t g = 0; g < streams; ++g) {
    dp::MechanismConfig per_gadget = mech;
    per_gadget.seed = session_seeds_.next_u64();
    calculators->emplace_back(per_gadget);
  }
  // Per-session scratch for the multi-stream slice's noise vector.
  auto noise = std::make_shared<std::vector<double>>(streams);
  std::shared_ptr<double> total_reps = total_reps_;
  std::shared_ptr<std::uint64_t> total_draws = total_draws_;
  const telemetry::EventHandle rotation_event = rotation_event_;
  const std::uint64_t session_ordinal = sessions_;
  // Laplace noise is input-independent (NoiseCalculator::noise_for ignores
  // x_t), so only the other mechanisms need the RDPMC read.
  const pmu::EventDescriptor* reference =
      mech.kind == dp::MechanismKind::kLaplace ? nullptr : reference_;
  const double noise_unit = noise_unit_;

  return [calculators, noise, injectors, plan, total_reps, total_draws,
          rotation_event, session_ordinal, reference,
          noise_unit](sim::VirtualMachine& vm, std::size_t t) {
    // Kernel module: RDPMC the protected series over the previous slice,
    // normalized.
    const double x_t =
        reference == nullptr
            ? 0.0
            : reference->response.expected_count(vm.last_slice_stats()) /
                  noise_unit;
    // Userspace daemon: compute per-gadget noise and inject through the
    // slice's scheduled plan variant (index 0 when not rotating).
    const std::size_t variant = plan ? plan->variant_at(t) : 0;
    if (plan && (t == 0 || plan->variant_at(t - 1) != variant)) {
      // Plan rotation wide event, stamped with the slice index (virtual
      // time). Wait-free, RNG-free: safe on worker threads without touching
      // the bit-identity contract.
      rotation_event.record(/*t_ns=*/t, variant, injectors->size(),
                            session_ordinal);
    }
    NoiseInjector& injector = *(*injectors)[variant];
    const double before = injector.total_repetitions();
    if (calculators->size() == 1) {
      injector.inject(vm, (*calculators)[0].noise_for(x_t));
    } else {
      for (std::size_t g = 0; g < noise->size(); ++g) {
        (*noise)[g] = (*calculators)[g].noise_for(x_t);
      }
      injector.inject_mixture(vm, *noise);
    }
    *total_draws += calculators->size();
    *total_reps += injector.total_repetitions() - before;
  };
}

double EventObfuscator::total_injected_repetitions() const noexcept {
  return *total_reps_;
}

double EventObfuscator::total_injected_reference_counts() const noexcept {
  return *total_reps_ * config_.segment.reference_delta;
}

}  // namespace aegis::obf
