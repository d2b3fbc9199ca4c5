#include "obf/injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace aegis::obf {

namespace {

/// Upper bound on the uops of a single submitted chunk (see the chunking
/// comment in the constructor).
constexpr double kMaxChunkUops = 50e3;

}  // namespace

NoiseInjector::NoiseInjector(const isa::IsaSpecification& spec,
                             const std::vector<WeightedGadget>& gadgets,
                             double unit_reps, double clip_norm)
    : unit_reps_(unit_reps),
      clip_norm_(clip_norm) {
  if (gadgets.empty()) {
    throw std::invalid_argument("NoiseInjector: empty gadget segment");
  }
  for (const WeightedGadget& wg : gadgets) {
    sim::InstructionBlock block =
        sim::InstructionBlock::from_variant(spec.by_uid(wg.gadget.reset_uid),
                                            1.0, sim::kInjectedNoiseRegion)
            .scaled(wg.weight);
    block += sim::InstructionBlock::from_variant(
                 spec.by_uid(wg.gadget.trigger_uid), 1.0,
                 sim::kInjectedNoiseRegion)
                 .scaled(wg.weight);
    segment_ += block;
    per_gadget_.push_back(std::move(block));
  }
  gadget_count_ = gadgets.size();
  // Submissions are split into bounded chunks so one injection cannot
  // monopolize a slice's cycle budget in a single unsplittable block.
  per_gadget_max_reps_.reserve(per_gadget_.size());
  per_gadget_full_chunk_.reserve(per_gadget_.size());
  for (const sim::InstructionBlock& block : per_gadget_) {
    const double uops_per_rep = std::max(block.uops, 1.0);
    per_gadget_max_reps_.push_back(std::max(1.0, kMaxChunkUops / uops_per_rep));
    per_gadget_full_chunk_.push_back(block.scaled(per_gadget_max_reps_.back()));
  }
  segment_max_reps_per_chunk_ =
      std::max(1.0, kMaxChunkUops / std::max(segment_.uops, 1.0));
  segment_full_chunk_ = segment_.scaled(segment_max_reps_per_chunk_);
}

// aegis-lint: noalloc
double NoiseInjector::inject_mixture(sim::VirtualMachine& vm,
                                     std::span<const double> noise_norms) {
  if (noise_norms.size() != per_gadget_.size()) {
    throw std::invalid_argument("inject_mixture: one draw per gadget required");
  }
  double reps_total = 0.0;
  for (std::size_t g = 0; g < per_gadget_.size(); ++g) {
    const double clipped = std::clamp(noise_norms[g], 0.0, clip_norm_);
    const double reps = clipped * unit_reps_;
    if (reps <= 0.0) continue;
    reps_total += reps;
    const double max_reps = per_gadget_max_reps_[g];
    // Full chunks submit the precomputed block; this yields the identical
    // submission sequence as scaling every chunk (the last chunk, including
    // the remaining == max_reps case, is block.scaled(remaining) either way
    // and full chunks are by definition scaled(max_reps)).
    double remaining = reps;
    while (remaining > max_reps) {
      // aegis-lint: alloc-ok(simulator boundary: the VM queue models guest work; a deployed injector programs noise without building instruction queues)
      vm.submit(per_gadget_full_chunk_[g]);
      remaining -= max_reps;
    }
    if (remaining > 0.0) {
      // aegis-lint: alloc-ok(simulator boundary: the VM queue models guest work; a deployed injector programs noise without building instruction queues)
      vm.submit(per_gadget_[g].scaled(remaining));
    }
  }
  const double mean_reps =
      reps_total / static_cast<double>(per_gadget_.size());
  total_reps_ += mean_reps;
  return mean_reps;
}

// aegis-lint: noalloc
double NoiseInjector::inject(sim::VirtualMachine& vm, double noise_norm) {
  // Paper: each noise element is truncated by the clip bound [0, B_u]
  // (repetition counts cannot be negative).
  const double clipped = std::clamp(noise_norm, 0.0, clip_norm_);
  const double reps = clipped * unit_reps_;
  if (reps <= 0.0) return 0.0;
  // Same chunk sequence as scaling each chunk per call; see inject_mixture.
  double remaining = reps;
  while (remaining > segment_max_reps_per_chunk_) {
    // aegis-lint: alloc-ok(simulator boundary: the VM queue models guest work; a deployed injector programs noise without building instruction queues)
    vm.submit(segment_full_chunk_);
    remaining -= segment_max_reps_per_chunk_;
  }
  if (remaining > 0.0) {
    // aegis-lint: alloc-ok(simulator boundary: the VM queue models guest work; a deployed injector programs noise without building instruction queues)
    vm.submit(segment_.scaled(remaining));
  }
  total_reps_ += reps;
  return reps;
}

}  // namespace aegis::obf
