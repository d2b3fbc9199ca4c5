// Event Fuzzer (paper Section VI): grammar-based fuzzing over instruction
// gadgets to find, for every vulnerable HPC event, the gadgets that disturb
// its count.
//
// Pipeline (Fig. 5): (1) instruction cleanup — test-execute every ISA-spec
// variant and drop the ~76 % that fault; (2) code generation & execution —
// run sampled (reset, trigger) pairs in the GadgetRunner harness and flag
// pairs that change the monitored counts; (3) result confirmation —
// multiple executions, repeated-trigger cold/hot-path constraints
// (lambda1/lambda2) and random reordering to reject C5 side effects and C6
// dirty state; (4) gadget filtering — cluster by instruction extension and
// category, keep each cluster's representative (an index into the event's
// confirmed list) and the highest-impact gadget per event.
#pragma once

#include <cstdint>
#include <vector>

#include "fuzzer/gadget.hpp"
#include "isa/spec.hpp"
#include "pmu/event_database.hpp"
#include "sim/gadget_runner.hpp"

namespace aegis::fuzzer {

class ParallelCampaign;

struct FuzzerConfig {
  std::size_t repeats = 10;        // R: paper's execution-repetition count
  double lambda1 = 0.2;            // (V2-V1) vs R(v2-v1) tolerance band
  double lambda2 = 10.0;           // require V2 > lambda2 * V1
  double delta_threshold = 0.3;       // minimum count change to flag a candidate
  std::size_t reset_unroll = 2;    // reset-instruction repetitions per exec
  std::size_t trigger_unroll = 32; // trigger-instruction repetitions per exec
  std::size_t reset_sample = 48;   // sampled reset instructions (0 = all)
  std::size_t trigger_sample = 48; // sampled trigger instructions (0 = all)
  double reorder_tolerance = 0.5;  // re-measured delta must stay within
                                   // [tol, 1/tol] x original
  std::uint64_t seed = 7;
  /// Campaign executors, the calling thread included (0 =
  /// hardware_concurrency). Results are bit-identical for every value:
  /// shards derive deterministic RNG streams from split_mix64(seed, shard),
  /// never from thread identity.
  std::size_t num_threads = 0;
};

struct StepTiming {
  double cleanup_seconds = 0.0;
  double generation_execution_seconds = 0.0;
  double confirmation_seconds = 0.0;
  double filtering_seconds = 0.0;
};

struct EventFuzzReport {
  std::uint32_t event_id = 0;
  std::size_t candidates = 0;                 // raw generation-step hits
  std::vector<ConfirmedGadget> confirmed;     // survived confirmation
  /// One index into `confirmed` per filter cluster (its max-delta record),
  /// in cluster-key order.
  std::vector<std::uint32_t> representatives;
  ConfirmedGadget best;                       // highest median delta
};

struct FuzzResult {
  std::vector<EventFuzzReport> reports;
  StepTiming timing;
  std::size_t total_gadget_space = 0;   // legal^2 (the paper's 11.5 M)
  std::size_t executed_gadgets = 0;     // pairs actually executed
  std::size_t cleaned_instructions = 0; // legal variants after cleanup
};

class EventFuzzer {
 public:
  EventFuzzer(const pmu::EventDatabase& db, const isa::IsaSpecification& spec,
              FuzzerConfig config);

  /// Step 1: test-executes every spec variant, keeping the legal ones.
  /// One-time; reused across events. Returns the cleaned uid list.
  const std::vector<std::uint32_t>& cleanup();

  /// Steps 2-4 against the given vulnerable events (any number; fuzzed in
  /// groups of up to 4, the concurrent-counter limit). Sharded across
  /// FuzzerConfig::num_threads executors; the result is bit-identical for
  /// every thread count (see ParallelCampaign).
  FuzzResult run(const std::vector<std::uint32_t>& event_ids);

  const FuzzerConfig& config() const noexcept { return config_; }

 private:
  std::vector<std::uint32_t> sample_instructions(std::size_t count,
                                                 util::Rng& rng) const;
  const std::vector<std::uint32_t>& cleanup_with(const ParallelCampaign& campaign);

  const pmu::EventDatabase* db_;
  const isa::IsaSpecification* spec_;
  FuzzerConfig config_;
  std::vector<std::uint32_t> cleaned_;
};

}  // namespace aegis::fuzzer
