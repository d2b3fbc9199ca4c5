#include "sim/gadget_runner.hpp"

#include <stdexcept>

namespace aegis::sim {

namespace {

/// Prolog: saves callee-saved registers, carves one page of stack scratch,
/// initializes memory-operand registers to the writable data page. Mostly
/// stores plus a serializing fence; runs OUTSIDE the measured window but
/// still perturbs cache state (one source of C5 side effects).
InstructionBlock make_prolog() {
  InstructionBlock b;
  b.region = kScratchRegion;
  b.class_counts[isa::InstructionClass::kStore] = 20;
  b.class_counts[isa::InstructionClass::kMov] = 16;
  b.class_counts[isa::InstructionClass::kSerialize] = 1;
  b.uops = 60;
  b.write_bytes = 4096;  // the scratch page
  b.serialize_count = 1;
  b.locality = 1.0;
  return b;
}

InstructionBlock make_epilog() {
  InstructionBlock b;
  b.region = kScratchRegion;
  b.class_counts[isa::InstructionClass::kLoad] = 20;
  b.class_counts[isa::InstructionClass::kMov] = 16;
  b.class_counts[isa::InstructionClass::kSerialize] = 1;
  b.uops = 60;
  b.read_bytes = 256;  // register restore area
  b.serialize_count = 1;
  b.locality = 1.0;
  return b;
}

// The prolog/epilog never change between executions; compiled once, their
// state-independent terms never recompute.
const CompiledBlock kProlog = compile_block(make_prolog());
const CompiledBlock kEpilog = compile_block(make_epilog());

}  // namespace

CompiledBlock compile_gadget(const isa::IsaSpecification& spec,
                             std::uint32_t uid, double unroll) {
  const isa::InstructionVariant& v = spec.by_uid(uid);
  if (!v.legal()) {
    throw std::invalid_argument("GadgetRunner: illegal variant " + v.mnemonic);
  }
  return compile_block(
      InstructionBlock::from_variant(v, unroll, kGadgetDataRegion));
}

GadgetRunner::GadgetRunner(const pmu::EventDatabase& db, std::uint64_t seed)
    : rng_(seed),
      counters_(db, rng_.next_u64()) {
  // isolcpus + core pinning: almost no external interference.
  config_.interrupt_rate = 0.002;
}

void GadgetRunner::program(std::vector<std::uint32_t> event_ids) {
  if (event_ids.size() > pmu::EventDatabase::kNumCounters) {
    throw std::invalid_argument(
        "GadgetRunner: at most 4 events can be measured concurrently");
  }
  counters_.program(std::move(event_ids));
  const std::vector<std::uint32_t>& ids = counters_.programmed();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::size_t j = 0;
    while (ids[j] != ids[i]) ++j;  // a duplicate id reads its first slot
    slot_idx_[i] = j;
  }
}

// aegis-lint: noalloc
// aegis-rng: stream(gadget-runner-execute-once)
std::span<const double> GadgetRunner::execute_once(
    std::span<const CompiledBlock> blocks) {
  // Prolog runs before the first RDPMC.
  (void)execute_compiled(kProlog, uarch_);

  const std::size_t n = counters_.programmed().size();
  for (std::size_t i = 0; i < n; ++i) {
    before_[i] = counters_.read_raw_slot(slot_idx_[i]);
  }

  // Measured window: the generated instruction sequence. A rare interrupt
  // can still land inside (the residual C2 noise the fuzzer's repetition
  // machinery has to average out).
  for (const CompiledBlock& block : blocks) {
    pmu::ExecutionStats stats = execute_compiled(block, uarch_);
    if (rng_.bernoulli(config_.interrupt_rate)) {
      stats.interrupts += 1.0;
      stats.cycles += config_.interrupt_cycles;
      stats.uops += config_.interrupt_uops;
    }
    counters_.accumulate(stats);
  }

  for (std::size_t i = 0; i < n; ++i) {
    delta_[i] = counters_.read_raw_slot(slot_idx_[i]) - before_[i];
  }

  (void)execute_compiled(kEpilog, uarch_);
  return std::span<const double>(delta_.data(), n);
}

void GadgetRunner::reset_machine_state() { uarch_ = MicroArchState{}; }

}  // namespace aegis::sim
