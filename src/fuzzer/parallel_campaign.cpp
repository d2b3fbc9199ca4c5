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
  out.candidates.resize(event_ids.size());
  if (event_ids.empty() || resets.empty() || triggers.empty()) return out;

  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  const std::size_t group_count = (event_ids.size() + kGroup - 1) / kGroup;
  const std::size_t shard_count = group_count * resets.size();

  // hits[shard][e] = flagged gadgets of the shard's reset row for the e-th
  // event of the shard's group, in trigger order.
  std::vector<std::vector<std::vector<Gadget>>> hits(shard_count);

  telemetry::Registry& tel = telemetry::resolve(config_->telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "fuzz.generate", 0, shard_count);
  pool_->parallel_for(shard_count, [&](std::size_t shard) {
    telemetry::ScopedSpan span(tel.spans(), "fuzz.generate.shard",
                               static_cast<std::uint32_t>(shard));
    const std::size_t group_index = shard / resets.size();
    const std::uint32_t reset = resets[shard % resets.size()];
    const std::size_t g0 = group_index * kGroup;
    const std::size_t g1 = std::min(event_ids.size(), g0 + kGroup);
    std::vector<std::uint32_t> group(event_ids.begin() + g0,
                                     event_ids.begin() + g1);
    sim::GadgetRunner runner(
        *db_, *spec_, util::split_mix64(config_->seed ^ kGenerationSalt, shard));
    runner.program(std::move(group));
    hits[shard].resize(g1 - g0);
    for (std::uint32_t trigger : triggers) {
      // Fuzzed back-to-back without state cleanup (speed over isolation;
      // the confirmation stage handles the resulting dirty state).
      const std::array<std::uint32_t, 2> seq = {reset, trigger};
      const std::span<const double> delta = runner.execute_once(
          seq, static_cast<double>(config_->trigger_unroll));
      for (std::size_t e = 0; e < hits[shard].size(); ++e) {
        if (delta[e] > config_->delta_threshold) {
          hits[shard][e].push_back(Gadget{reset, trigger});
        }
      }
    }
  });

  // Merge in shard order: shards of one group are its resets in sample
  // order, so candidates keep the serial grid order.
  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    const std::size_t g0 = (shard / resets.size()) * kGroup;
    for (std::size_t e = 0; e < hits[shard].size(); ++e) {
      auto& dst = out.candidates[g0 + e];
      dst.insert(dst.end(), hits[shard][e].begin(), hits[shard][e].end());
    }
  }
  out.executed_pairs = shard_count * triggers.size();
  return out;
}

// aegis-rng: stream(parallel-campaign-confirm)
std::vector<std::vector<ConfirmedGadget>> ParallelCampaign::confirm(
    const std::vector<std::uint32_t>& event_ids,
    const std::vector<std::vector<Gadget>>& candidates) const {
  ConfirmationParams params;
  params.repeats = config_->repeats;
  params.lambda1 = config_->lambda1;
  params.lambda2 = config_->lambda2;
  params.reset_unroll = config_->reset_unroll;
  params.trigger_unroll = config_->trigger_unroll;
  params.delta_threshold = config_->delta_threshold;

  telemetry::Registry& tel = telemetry::resolve(config_->telemetry);
  telemetry::ScopedSpan stage(tel.spans(), "fuzz.confirm", 0,
                              event_ids.size());
  std::vector<std::vector<ConfirmedGadget>> stable(event_ids.size());
  pool_->parallel_for(event_ids.size(), [&](std::size_t e) {
    telemetry::ScopedSpan span(tel.spans(), "fuzz.confirm.shard",
                               static_cast<std::uint32_t>(e),
                               candidates[e].size());
    sim::GadgetRunner runner(
        *db_, *spec_, util::split_mix64(config_->seed ^ kConfirmSalt, e));
    runner.program({event_ids[e]});

    std::vector<ConfirmedGadget> confirmed;
    for (const Gadget& gadget : candidates[e]) {
      const ConfirmationOutcome outcome =
          confirm_gadget(runner, gadget, 0, params);
      if (outcome.confirmed) {
        confirmed.push_back(
            ConfirmedGadget{gadget, event_ids[e], outcome.trigger_delta()});
      }
    }

    // Gadget reordering: re-measure in a shuffled order and drop gadgets
    // whose behaviour changes (dirty state from the new predecessor). The
    // shuffle draws from a per-event stream so the order — and therefore
    // the runner's state evolution — is thread-count-invariant.
    util::Rng reorder_rng(util::split_mix64(config_->seed ^ kReorderSalt, e));
    std::vector<std::size_t> order(confirmed.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    reorder_rng.shuffle(order);
    stable[e].reserve(confirmed.size());
    for (std::size_t idx : order) {
      const ConfirmedGadget& g = confirmed[idx];
      const ConfirmationOutcome again = confirm_gadget(runner, g.gadget, 0, params);
      if (!again.confirmed) continue;
      const double ratio = again.trigger_delta() / g.median_delta;
      if (ratio < config_->reorder_tolerance ||
          ratio > 1.0 / config_->reorder_tolerance) {
        continue;
      }
      stable[e].push_back(g);
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
