// Noise injector (paper Section VII-C): realizes a computed noise amount as
// repetitions of the stacked cover-gadget code segment submitted into the
// VM's execution flow. The segment executes every cover gadget once per
// repetition, so one repetition adds the cover's per-event segment effect
// to every vulnerable event simultaneously.
#pragma once

#include <span>

#include "fuzzer/gadget.hpp"
#include "isa/spec.hpp"
#include "sim/virtual_machine.hpp"

namespace aegis::obf {

/// One gadget's multiplicity inside the stacked noise segment. The base
/// cover gadgets carry weight 1; events whose segment delta is weak get
/// their best gadget boosted (Section VI-F: the highest-value-change gadget
/// disturbs most per executed instruction).
struct WeightedGadget {
  fuzzer::Gadget gadget;
  double weight = 1.0;

  friend bool operator==(const WeightedGadget&, const WeightedGadget&) = default;
};

class NoiseInjector {
 public:
  /// Builds the stacked segment from a weighted gadget list. `unit_reps`
  /// converts 1.0 units of normalized mechanism noise into segment
  /// repetitions; `clip_norm` is the paper's B_u truncation bound in
  /// normalized units. Throws std::invalid_argument for an empty list.
  NoiseInjector(const isa::IsaSpecification& spec,
                const std::vector<WeightedGadget>& gadgets, double unit_reps,
                double clip_norm);

  /// Clips the normalized noise to [0, B_u], converts it to segment
  /// repetitions and submits the blocks. Returns the repetitions injected.
  double inject(sim::VirtualMachine& vm, double noise_norm);

  /// Mixture injection: one independent noise draw per gadget. A single
  /// draw for the whole segment would place all injected counts on one
  /// fixed direction in event space, which a defense-aware attacker can
  /// project out; independent per-gadget draws span the full gadget-effect
  /// subspace. `noise_norms` must have one entry per gadget. Returns the
  /// mean repetitions injected across gadgets.
  double inject_mixture(sim::VirtualMachine& vm,
                        std::span<const double> noise_norms);

  std::size_t gadget_count() const noexcept { return per_gadget_.size(); }

  const sim::InstructionBlock& segment_block() const noexcept { return segment_; }
  std::size_t segment_gadgets() const noexcept { return gadget_count_; }

  /// Cumulative repetitions injected by this session.
  double total_repetitions() const noexcept { return total_reps_; }

 private:
  sim::InstructionBlock segment_;   // one execution of all cover gadgets
  std::vector<sim::InstructionBlock> per_gadget_;  // weighted, per gadget
  // Chunking bounds AND the full-sized chunk blocks precomputed at
  // construction: inject runs on the protected VM's per-slice execution
  // path, so per-call divisions over immutable segment shapes — and the
  // scaled() block materialization for every full chunk, which dominates
  // large injections — were hoisted out of it. Only the final partial
  // chunk still scales per call.
  double segment_max_reps_per_chunk_ = 1.0;
  sim::InstructionBlock segment_full_chunk_;  // segment_.scaled(max chunk)
  std::vector<double> per_gadget_max_reps_;
  std::vector<sim::InstructionBlock> per_gadget_full_chunk_;
  double unit_reps_ = 1.0;
  double clip_norm_ = 0.0;
  std::size_t gadget_count_ = 0;
  double total_reps_ = 0.0;
};

}  // namespace aegis::obf
