#include "core/aegis.hpp"

#include "dp/mechanism.hpp"
#include "pmu/backend/registry.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace aegis::core {

std::vector<std::uint32_t> OfflineResult::top_events(std::size_t n) const {
  std::vector<std::uint32_t> events;
  events.reserve(std::min(n, ranking.size()));
  for (const auto& rank : ranking) {
    if (events.size() >= n) break;
    events.push_back(rank.event_id);
  }
  return events;
}

Aegis::Aegis(isa::CpuModel template_cpu)
    : backend_(&pmu::backend::backend_for(template_cpu)),
      spec_(isa::IsaSpecification::generate(template_cpu)) {}

OfflineResult Aegis::analyze(
    const workload::Workload& application,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    const OfflineConfig& config) const {
  OfflineResult result;

  profiler::ApplicationProfiler prof(database(), config.profiler);
  result.warmup = prof.warmup(application);
  result.ranking = prof.rank(secrets, result.warmup.surviving);

  std::vector<std::uint32_t> to_fuzz;
  const std::size_t limit = config.fuzz_top_events == 0
                                ? result.ranking.size()
                                : std::min(config.fuzz_top_events,
                                           result.ranking.size());
  to_fuzz.reserve(limit);
  for (std::size_t i = 0; i < limit; ++i) {
    to_fuzz.push_back(result.ranking[i].event_id);
  }

  fuzzer::EventFuzzer fuzz(database(), spec_, config.fuzzer);
  result.fuzz = fuzz.run(to_fuzz);
  result.cover = fuzzer::minimal_gadget_cover(result.fuzz);
  return result;
}

std::unique_ptr<obf::EventObfuscator> Aegis::make_obfuscator(
    const OfflineResult& analysis,
    const std::vector<std::unique_ptr<workload::Workload>>& secrets,
    dp::MechanismConfig mechanism, ObfuscatorBuildOptions options,
    std::uint64_t seed) const {
  // Invalid defence parameters fail here, before any calibration run, not
  // at the first session(): a NaN pooling factor makes unit_reps NaN and a
  // negative clip bound inverts the injector's clamp.
  if (!(std::isfinite(options.clip_sigma) && options.clip_sigma > 0.0) ||
      !(std::isfinite(options.pooling_factor) &&
        options.pooling_factor > 0.0)) {
    throw std::invalid_argument(
        "Aegis::make_obfuscator: clip_sigma and pooling_factor must be "
        "finite and > 0");
  }
  // The mechanism checks its own epsilon, sensitivity, bound or level.
  (void)dp::make_mechanism(mechanism);

  // The protected events: the top-MI events the cover actually reaches,
  // in ranking order (the attacker monitors the top-ranked ones).
  const std::size_t protect_limit = options.protect_top_events == 0
                                        ? analysis.cover.covered_events.size()
                                        : options.protect_top_events;
  std::vector<std::uint32_t> protected_events;
  for (const auto& rank : analysis.ranking) {
    if (protected_events.size() >= protect_limit) break;
    if (std::find(analysis.cover.covered_events.begin(),
                  analysis.cover.covered_events.end(),
                  rank.event_id) != analysis.cover.covered_events.end()) {
      protected_events.push_back(rank.event_id);
    }
  }
  if (protected_events.empty()) {
    protected_events = analysis.cover.covered_events;
  }
  if (protected_events.empty()) {
    throw std::invalid_argument(
        "Aegis::make_obfuscator: the gadget cover reaches no events, so "
        "there is no event to calibrate or protect");
  }

  const std::vector<obf::EventCalibration> calibration =
      obf::calibrate_events(database(), protected_events, secrets,
                            options.calibration_runs, seed ^ 0xCA1ULL);

  // Per-event requirement: r_e = sigma_e / delta_e segment repetitions per
  // 1.0 units of normalized noise. One repetition knob drives every event;
  // sizing it to the worst r_e would let a single weak-delta event inflate
  // the noise for all (the requirement spread is an order of magnitude).
  // Instead the knob is sized to the MEDIAN requirement, and events above
  // it get their own highest-value-change gadget (Section VI-F) stacked
  // into the segment with a boosted multiplicity, so every protected event
  // still receives at least its full mechanism noise.
  // Per-gadget per-event measured deltas, from the fuzzing reports.
  std::unordered_map<fuzzer::Gadget,
                     std::unordered_map<std::uint32_t, double>,
                     fuzzer::GadgetHash>
      gadget_effect;
  for (const auto& report : analysis.fuzz.reports) {
    for (const auto& g : report.confirmed) {
      auto& per_event = gadget_effect[g.gadget][report.event_id];
      per_event = std::max(per_event, g.median_delta);
    }
  }

  std::vector<obf::WeightedGadget> segment;
  for (const fuzzer::Gadget& g : analysis.cover.gadgets) {
    segment.push_back(obf::WeightedGadget{g, 1.0});
  }
  auto effective_delta = [&](std::uint32_t event_id) {
    double delta = 0.0;
    for (const auto& wg : segment) {
      const auto it = gadget_effect.find(wg.gadget);
      if (it == gadget_effect.end()) continue;
      const auto jt = it->second.find(event_id);
      if (jt != it->second.end()) delta += wg.weight * jt->second;
    }
    return delta;
  };
  auto median_requirement = [&] {
    std::vector<double> requirements;
    for (const obf::EventCalibration& cal : calibration) {
      const double delta = effective_delta(cal.event_id);
      if (delta > 1e-9 && cal.stddev > 0.0) {
        requirements.push_back(cal.stddev / delta);
      }
    }
    return util::median(requirements);
  };

  // The knob is sized to the median requirement of the unit-weight
  // segment; events whose requirement exceeds it get their strongest
  // gadget's multiplicity raised until their effective delta reaches
  // sigma_e / unit. Boost side effects raise other events' deltas too
  // (only strengthening their noise), so the loop converges in a few
  // passes; afterwards EVERY protected event receives at least its full
  // mechanism noise at the median cost.
  const double unit = std::max(median_requirement(), 1.0);
  auto add_weight = [&](const fuzzer::Gadget& g, double extra) {
    for (auto& wg : segment) {
      if (wg.gadget == g) {
        wg.weight += extra;
        return;
      }
    }
    segment.push_back(obf::WeightedGadget{g, 1.0 + extra});
  };
  for (int pass = 0; pass < 4; ++pass) {
    bool boosted = false;
    for (const obf::EventCalibration& cal : calibration) {
      if (cal.stddev <= 0.0) continue;
      const double target_delta = cal.stddev / unit;
      const double delta = effective_delta(cal.event_id);
      if (delta >= target_delta * 0.99) continue;
      for (const auto& report : analysis.fuzz.reports) {
        if (report.event_id != cal.event_id || report.confirmed.empty()) continue;
        const double extra = std::min(
            (target_delta - delta) / std::max(report.best.median_delta, 1e-9),
            50.0);
        if (extra > 1e-3) {
          add_weight(report.best.gadget, extra);
          boosted = true;
        }
        break;
      }
    }
    if (!boosted) break;
  }
  const double unit_reps = std::max(unit * options.pooling_factor, 1.0);

  obf::ObfuscatorConfig config;
  config.mechanism = mechanism;
  config.reference_event = protected_events.front();
  config.reference_sigma = std::max(calibration.front().stddev, 1.0);
  config.unit_reps = unit_reps;
  config.clip_norm = options.clip_sigma;
  config.weighted_segment = std::move(segment);
  config.single_stream = options.single_noise_stream;
  config.rotate = options.rotate;
  config.rotation = options.rotation;
  config.seed = seed;
  return std::make_unique<obf::EventObfuscator>(database(), spec_,
                                                analysis.cover, config);
}

}  // namespace aegis::core
