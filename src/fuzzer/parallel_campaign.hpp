// Sharded execution engine for the Event Fuzzer pipeline (paper Fig. 5).
//
// Every stage of the campaign is decomposed into shards whose boundaries
// depend only on the input — never on the thread count — and every shard
// derives its own RNG stream and GadgetRunner from the shard index via
// util::split_mix64(seed ^ stage_salt, shard). Shard outputs land in
// index-keyed slots and are merged in shard order, so the merged result is
// bit-identical whether the pool has 1 worker or 64 (tests/parallel_test.cpp
// proves this differentially).
//
// Shard grains:
//   cleanup     — fixed-size chunks of the ISA variant list;
//   generation  — one shard per (event group, reset instruction): the
//                 triggers of a row run back-to-back on one runner, keeping
//                 the paper's C6 dirty-state realism within the row;
//   confirmation — one shard per event group: one runner programmed with
//                 the group measures each candidate once for all four
//                 register slots, as a real PMU reads all four counters;
//   filtering   — one shard per event.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzzer/confirmation.hpp"
#include "fuzzer/filtering.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/gadget.hpp"
#include "isa/spec.hpp"
#include "pmu/event_database.hpp"
#include "util/thread_pool.hpp"

namespace aegis::fuzzer {

// Domain-separation salts: each stage derives shard streams from
// split_mix64(config.seed ^ salt, shard) so no two stages share a stream.
inline constexpr std::uint64_t kCleanupSalt = 0xC1EA17ULL;
inline constexpr std::uint64_t kGenerationSalt = 0x6E4E7A7EULL;
inline constexpr std::uint64_t kConfirmSalt = 0xC0FF112ULL;
inline constexpr std::uint64_t kReorderSalt = 0x2E02DE2ULL;

struct GenerationOutput {
  /// groups[g] = flagged gadgets of event group g (event_ids[4g .. 4g+3]),
  /// in (reset-major, trigger-minor) grid order, each with the slots whose
  /// count it moved.
  std::vector<std::vector<GroupCandidate>> groups;
  std::size_t executed_pairs = 0;
};

class ParallelCampaign {
 public:
  ParallelCampaign(const pmu::EventDatabase& db,
                   const isa::IsaSpecification& spec,
                   const FuzzerConfig& config, util::ThreadPool& pool);

  /// Step 1: test-executes every spec variant in a per-chunk harness and
  /// returns the legal uids in spec order.
  std::vector<std::uint32_t> cleanup() const;

  /// Step 2: executes the reset x trigger grid against the events (grouped
  /// by the 4-counter register limit) and flags pairs whose count delta
  /// clears the threshold.
  GenerationOutput generate(const std::vector<std::uint32_t>& event_ids,
                            const std::vector<std::uint32_t>& resets,
                            const std::vector<std::uint32_t>& triggers) const;

  /// Step 3: per-group confirmation (repeated-trigger constraints on every
  /// slot at once) plus the shuffled-reorder stability pass over the
  /// group's confirmed gadgets; returns the stable gadgets per event.
  std::vector<std::vector<ConfirmedGadget>> confirm(
      const std::vector<std::uint32_t>& event_ids,
      const std::vector<std::vector<GroupCandidate>>& groups) const;

  /// Step 4: per-event extension/category clustering.
  std::vector<FilterOutcome> filter(
      const std::vector<std::vector<ConfirmedGadget>>& confirmed) const;

 private:
  const pmu::EventDatabase* db_;
  const isa::IsaSpecification* spec_;
  const FuzzerConfig* config_;
  util::ThreadPool* pool_;
};

}  // namespace aegis::fuzzer
