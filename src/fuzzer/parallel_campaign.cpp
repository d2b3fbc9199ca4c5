#include "fuzzer/parallel_campaign.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "sim/gadget_runner.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "util/rng.hpp"

namespace aegis::fuzzer {

namespace {

// Variants legality-tested per cleanup shard. Small enough to load-balance,
// large enough that the per-shard runner setup cost stays negligible.
constexpr std::size_t kCleanupChunk = 128;

static_assert(kSlots <= 8 * sizeof(SlotMask), "one mask bit per register slot");

/// Event group g: the g-th run of kSlots events (the last may be short).
std::vector<std::uint32_t> group_events(
    const std::vector<std::uint32_t>& event_ids, std::size_t g) {
  const std::size_t g0 = g * kSlots;
  const std::size_t g1 = std::min(event_ids.size(), g0 + kSlots);
  return {event_ids.begin() + static_cast<std::ptrdiff_t>(g0),
          event_ids.begin() + static_cast<std::ptrdiff_t>(g1)};
}

}  // namespace

ParallelCampaign::ParallelCampaign(const pmu::EventDatabase& db,
                                   const isa::IsaSpecification& spec,
                                   const FuzzerConfig& config,
                                   util::ThreadPool& pool)
    : db_(&db), spec_(&spec), config_(&config), pool_(&pool) {}

std::vector<std::uint32_t> ParallelCampaign::cleanup() const {
  const auto& variants = spec_->variants();
  const std::size_t shard_count =
      (variants.size() + kCleanupChunk - 1) / kCleanupChunk;
  std::vector<std::vector<std::uint32_t>> kept(shard_count);

  telemetry::Registry& tel = telemetry::resolve(config_->telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "fuzz.cleanup", 0, shard_count);
  pool_->parallel_for(shard_count, [&](std::size_t shard) {
    telemetry::ScopedSpan span(tel.spans(), "fuzz.cleanup.shard",
                               static_cast<std::uint32_t>(shard));
    // Variants that fault (#UD / #GP) are excluded; the simulator faults
    // exactly where the spec says real hardware would.
    sim::GadgetRunner probe(*db_, *spec_,
                            util::split_mix64(config_->seed ^ kCleanupSalt, shard));
    probe.program({});
    const std::size_t lo = shard * kCleanupChunk;
    const std::size_t hi = std::min(variants.size(), lo + kCleanupChunk);
    kept[shard].reserve((hi - lo) / 4 + 1);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::array<std::uint32_t, 1> seq = {variants[i].uid};
      try {
        (void)probe.execute_once(seq, 1.0);
        kept[shard].push_back(variants[i].uid);
      } catch (const std::invalid_argument&) {
        // faulted: excluded from the cleaned list
      }
    }
  });

  std::vector<std::uint32_t> cleaned;
  cleaned.reserve(variants.size() / 4 + 1);
  for (const auto& shard : kept) {
    cleaned.insert(cleaned.end(), shard.begin(), shard.end());
  }
  return cleaned;
}

GenerationOutput ParallelCampaign::generate(
    const std::vector<std::uint32_t>& event_ids,
    const std::vector<std::uint32_t>& resets,
    const std::vector<std::uint32_t>& triggers) const {
  GenerationOutput out;
  const std::size_t group_count = (event_ids.size() + kSlots - 1) / kSlots;
  out.groups.resize(group_count);
  if (event_ids.empty() || resets.empty() || triggers.empty()) return out;
  const std::size_t shard_count = group_count * resets.size();

  // hits[shard] = flagged gadgets of the shard's reset row, in trigger
  // order.
  std::vector<std::vector<GroupCandidate>> hits(shard_count);

  telemetry::Registry& tel = telemetry::resolve(config_->telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "fuzz.generate", 0, shard_count);
  pool_->parallel_for(shard_count, [&](std::size_t shard) {
    telemetry::ScopedSpan span(tel.spans(), "fuzz.generate.shard",
                               static_cast<std::uint32_t>(shard));
    const std::uint32_t reset = resets[shard % resets.size()];
    sim::GadgetRunner runner(
        *db_, *spec_, util::split_mix64(config_->seed ^ kGenerationSalt, shard));
    runner.program(group_events(event_ids, shard / resets.size()));
    for (std::uint32_t trigger : triggers) {
      // Fuzzed back-to-back without state cleanup (speed over isolation;
      // the confirmation stage handles the resulting dirty state).
      const std::array<std::uint32_t, 2> seq = {reset, trigger};
      const std::span<const double> delta = runner.execute_once(
          seq, static_cast<double>(config_->trigger_unroll));
      SlotMask slots = 0;
      for (std::size_t s = 0; s < delta.size(); ++s) {
        if (delta[s] > config_->delta_threshold) {
          slots |= static_cast<SlotMask>(1U << s);
        }
      }
      if (slots != 0) {
        hits[shard].push_back(GroupCandidate{Gadget{reset, trigger}, slots});
      }
    }
  });

  // Merge in shard order: shards of one group are its resets in sample
  // order, so each group's list keeps the serial grid order.
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    auto& dst = out.groups[shard / resets.size()];
    dst.insert(dst.end(), hits[shard].begin(), hits[shard].end());
  }
  out.executed_pairs = shard_count * triggers.size();
  return out;
}

// aegis-rng: stream(parallel-campaign-confirm)
std::vector<std::vector<ConfirmedGadget>> ParallelCampaign::confirm(
    const std::vector<std::uint32_t>& event_ids,
    const std::vector<std::vector<GroupCandidate>>& groups) const {
  ConfirmationParams params;
  params.repeats = config_->repeats;
  params.lambda1 = config_->lambda1;
  params.lambda2 = config_->lambda2;
  params.reset_unroll = config_->reset_unroll;
  params.trigger_unroll = config_->trigger_unroll;
  params.delta_threshold = config_->delta_threshold;

  if (groups.size() != (event_ids.size() + kSlots - 1) / kSlots) {
    throw std::invalid_argument(
        "ParallelCampaign::confirm: need one candidate list per event group");
  }

  telemetry::Registry& tel = telemetry::resolve(config_->telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "fuzz.confirm", 0, groups.size());
  std::vector<std::vector<ConfirmedGadget>> stable(event_ids.size());
  pool_->parallel_for(groups.size(), [&](std::size_t g) {
    telemetry::ScopedSpan span(tel.spans(), "fuzz.confirm.shard",
                               static_cast<std::uint32_t>(g),
                               groups[g].size());
    sim::GadgetRunner runner(
        *db_, *spec_, util::split_mix64(config_->seed ^ kConfirmSalt, g));
    runner.program(group_events(event_ids, g));
    const std::size_t g0 = g * kSlots;

    // The group's gadgets confirmed for at least one of their flagged
    // slots, in grid order, with each slot's hot-path delta.
    struct Hit {
      Gadget gadget;
      SlotMask slots;
      std::array<double, kSlots> delta;
    };
    std::vector<Hit> confirmed;
    std::array<std::size_t, kSlots> per_slot{};
    for (const GroupCandidate& candidate : groups[g]) {
      const ConfirmationOutcome outcome =
          confirm_gadget(runner, candidate.gadget, params);
      const SlotMask slots = outcome.confirmed & candidate.slots;
      if (slots == 0) continue;
      Hit hit{candidate.gadget, slots, {}};
      for (std::size_t s = 0; s < kSlots; ++s) {
        hit.delta[s] = outcome.trigger_delta(s);
        per_slot[s] += has_slot(slots, s) ? 1 : 0;
      }
      confirmed.push_back(hit);
    }
    for (std::size_t s = 0; s < runner.programmed().size(); ++s) {
      stable[g0 + s].reserve(per_slot[s]);
    }

    // Gadget reordering: re-measure the group's confirmed gadgets once each
    // in a shuffled order and drop, per slot, those whose behaviour changes
    // (dirty state from the new predecessor). The shuffle draws from a
    // per-group stream so the order — and therefore the runner's state
    // evolution — is thread-count-invariant.
    util::Rng reorder_rng(util::split_mix64(config_->seed ^ kReorderSalt, g));
    std::vector<std::size_t> order(confirmed.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    reorder_rng.shuffle(order);
    for (std::size_t idx : order) {
      const Hit& hit = confirmed[idx];
      const ConfirmationOutcome again =
          confirm_gadget(runner, hit.gadget, params);
      for (std::size_t s = 0; s < kSlots; ++s) {
        if (!has_slot(hit.slots, s) || !again.confirmed_for(s)) continue;
        const double ratio = again.trigger_delta(s) / hit.delta[s];
        if (ratio < config_->reorder_tolerance ||
            ratio > 1.0 / config_->reorder_tolerance) {
          continue;
        }
        stable[g0 + s].push_back(
            ConfirmedGadget{hit.gadget, event_ids[g0 + s], hit.delta[s]});
      }
    }
  });
  return stable;
}

std::vector<FilterOutcome> ParallelCampaign::filter(
    const std::vector<std::vector<ConfirmedGadget>>& confirmed) const {
  telemetry::Registry& tel = telemetry::resolve(config_->telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "fuzz.filter", 0,
                              confirmed.size());
  std::vector<FilterOutcome> outcomes(confirmed.size());
  pool_->parallel_for(confirmed.size(), [&](std::size_t e) {
    telemetry::ScopedSpan span(tel.spans(), "fuzz.filter.shard",
                               static_cast<std::uint32_t>(e),
                               confirmed[e].size());
    outcomes[e] = filter_gadgets(confirmed[e], *spec_);
  });
  return outcomes;
}

}  // namespace aegis::fuzzer
