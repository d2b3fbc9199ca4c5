#include "fuzzer/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "fuzzer/parallel_campaign.hpp"
#include "util/thread_pool.hpp"

namespace aegis::fuzzer {

namespace {

// Wall-clock reads here fill FuzzResult::timing only — reporting fields
// that never feed a ranking, seed, or serialized artifact.
double seconds_since(std::chrono::steady_clock::time_point start) {
  // aegis-lint: clock-ok(reporting-only: FuzzResult::timing fields)
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

EventFuzzer::EventFuzzer(const pmu::EventDatabase& db,
                         const isa::IsaSpecification& spec, FuzzerConfig config)
    : db_(&db), spec_(&spec), config_(config) {}

const std::vector<std::uint32_t>& EventFuzzer::cleanup() {
  if (!cleaned_.empty()) return cleaned_;
  util::ThreadPool pool(config_.num_threads);
  ParallelCampaign campaign(*db_, *spec_, config_, pool);
  return cleanup_with(campaign);
}

const std::vector<std::uint32_t>& EventFuzzer::cleanup_with(
    const ParallelCampaign& campaign) {
  if (cleaned_.empty()) cleaned_ = campaign.cleanup();
  return cleaned_;
}

// aegis-rng: stream(fuzzer-sample-instructions)
std::vector<std::uint32_t> EventFuzzer::sample_instructions(
    std::size_t count, util::Rng& rng) const {
  if (count == 0 || count >= cleaned_.size()) return cleaned_;
  // Class-stratified sampling: narrow events respond to a single
  // instruction class, so every class present in the cleaned list must be
  // represented in the sample.
  std::unordered_map<int, std::vector<std::uint32_t>> by_class;
  for (std::uint32_t uid : cleaned_) {
    by_class[static_cast<int>(spec_->by_uid(uid).iclass)].push_back(uid);
  }
  std::vector<std::uint32_t> sample;
  sample.reserve(count);
  const std::size_t per_class =
      std::max<std::size_t>(1, count / by_class.size());
  // Int-keyed map filled in deterministic cleaned_ order: for a fixed
  // stdlib the iteration order is a pure function of the key set, and
  // GoldenFuzzer pins the resulting sample (cross-stdlib drift re-pins
  // goldens per EXPERIMENTS.md).
  // aegis-lint: ordered-ok(int keys inserted in fixed order; goldens pin the sample)
  for (auto& [cls, uids] : by_class) {
    rng.shuffle(uids);
    for (std::size_t i = 0; i < per_class && i < uids.size(); ++i) {
      sample.push_back(uids[i]);
    }
  }
  // Top up with uniform picks if stratification undershot.
  while (sample.size() < count) {
    sample.push_back(cleaned_[rng.uniform_index(cleaned_.size())]);
  }
  return sample;
}

// aegis-rng: stream(fuzzer-run)
FuzzResult EventFuzzer::run(const std::vector<std::uint32_t>& event_ids) {
  FuzzResult result;
  util::Rng rng(config_.seed);
  util::ThreadPool pool(config_.num_threads);
  ParallelCampaign campaign(*db_, *spec_, config_, pool);

  // aegis-lint: clock-ok(reporting-only timing field)
  auto t0 = std::chrono::steady_clock::now();
  cleanup_with(campaign);
  result.timing.cleanup_seconds = seconds_since(t0);
  result.cleaned_instructions = cleaned_.size();
  result.total_gadget_space = cleaned_.size() * cleaned_.size();

  // One shared gadget grid for all events: the set-cover stage needs the
  // same gadgets evaluated against every event. Sampling stays on the main
  // thread (one stream, draw order fixed by the sample sizes alone).
  const std::vector<std::uint32_t> resets =
      sample_instructions(config_.reset_sample, rng);
  const std::vector<std::uint32_t> triggers =
      sample_instructions(config_.trigger_sample, rng);

  result.reports.reserve(event_ids.size());
  for (std::uint32_t event_id : event_ids) {
    result.reports.push_back(EventFuzzReport{event_id, 0, {}, {}, {}});
  }

  // --- Step 2: generation + execution, one shard per (group, reset) ---
  // aegis-lint: clock-ok(reporting-only timing field)
  t0 = std::chrono::steady_clock::now();
  GenerationOutput generation = campaign.generate(event_ids, resets, triggers);
  result.executed_gadgets = generation.executed_pairs;
  // An event's candidates are the gadgets flagged in its slot of its group.
  for (std::size_t g = 0; g < generation.groups.size(); ++g) {
    for (const GroupCandidate& candidate : generation.groups[g]) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        if (has_slot(candidate.slots, s)) {
          ++result.reports[g * kSlots + s].candidates;
        }
      }
    }
  }
  result.timing.generation_execution_seconds = seconds_since(t0);

  // --- Step 3: confirmation, one shard per event group ---
  // aegis-lint: clock-ok(reporting-only timing field)
  t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<ConfirmedGadget>> stable =
      campaign.confirm(event_ids, generation.groups);
  result.timing.confirmation_seconds = seconds_since(t0);

  // --- Step 4: filtering / clustering, one shard per event ---
  // The stable lists are filtered first and then moved into the reports, so
  // each confirmed pair is held once.
  // aegis-lint: clock-ok(reporting-only timing field)
  t0 = std::chrono::steady_clock::now();
  std::vector<FilterOutcome> filtered = campaign.filter(stable);
  for (std::size_t e = 0; e < event_ids.size(); ++e) {
    result.reports[e].confirmed = std::move(stable[e]);
    result.reports[e].representatives = std::move(filtered[e].representatives);
    result.reports[e].best = filtered[e].best;
  }
  result.timing.filtering_seconds = seconds_since(t0);
  return result;
}

}  // namespace aegis::fuzzer
