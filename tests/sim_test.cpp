#include <gtest/gtest.h>

#include "sim/executor.hpp"
#include "sim/gadget_runner.hpp"
#include "sim/host_monitor.hpp"
#include "sim/virtual_machine.hpp"

namespace aegis::sim {
namespace {

using isa::InstructionClass;

TEST(MicroArch, ColdAccessMissesWarmAccessHits) {
  MicroArchState uarch;
  const auto cold = uarch.access(10, 4096, 1.0);
  EXPECT_GT(cold.l1_misses, 0.0);
  EXPECT_GT(cold.llc_misses, 0.0);
  const auto warm = uarch.access(10, 4096, 1.0);
  EXPECT_LT(warm.l1_misses, cold.l1_misses * 0.2);
}

TEST(MicroArch, FlushRestoresMisses) {
  MicroArchState uarch;
  (void)uarch.access(10, 4096, 1.0);
  uarch.flush(10, 4096);
  const auto after = uarch.access(10, 4096, 1.0);
  EXPECT_GT(after.l1_misses, 30.0);  // ~64 lines, mostly missing again
}

TEST(MicroArch, PartialFlushPartiallyEvicts) {
  MicroArchState uarch;
  (void)uarch.access(10, 4096, 1.0);
  const double before = uarch.l1_residency(10);
  uarch.flush(10, 1024);  // a quarter of the working set
  EXPECT_NEAR(uarch.l1_residency(10), before * 0.75, 1e-9);
}

TEST(MicroArch, FlushAllClearsEverything) {
  MicroArchState uarch;
  (void)uarch.access(1, 1024, 1.0);
  (void)uarch.access(2, 1024, 1.0);
  uarch.flush_all();
  EXPECT_EQ(uarch.l1_residency(1), 0.0);
  EXPECT_EQ(uarch.llc_residency(2), 0.0);
}

TEST(MicroArch, LargeFootprintEvictsOtherRegions) {
  MicroArchState uarch;
  (void)uarch.access(1, 4096, 1.0);
  const double before = uarch.l1_residency(1);
  (void)uarch.access(2, MicroArchState::kL1Bytes, 1.0);  // L1-sized working set
  EXPECT_LT(uarch.l1_residency(1), before * 0.05);
}

TEST(MicroArch, WorkingSetLargerThanL1IsPartiallyResident) {
  MicroArchState uarch;
  (void)uarch.access(1, MicroArchState::kL1Bytes * 4, 1.0);
  EXPECT_NEAR(uarch.l1_residency(1), 0.25, 1e-9);
  EXPECT_EQ(uarch.llc_residency(1), 1.0);
}

TEST(MicroArch, RandomAccessMissesMoreThanSequential) {
  MicroArchState a, b;
  (void)a.access(1, 8192, 1.0);
  (void)b.access(1, 8192, 1.0);
  const auto seq = a.access(1, 8192, 1.0);
  const auto rnd = b.access(1, 8192, 0.0);
  EXPECT_GT(rnd.l1_misses, seq.l1_misses);
}

TEST(MicroArch, BranchPredictorWarmsUp) {
  MicroArchState uarch;
  const double first = uarch.run_branches(5, 1000, 1.0);
  for (int i = 0; i < 20; ++i) (void)uarch.run_branches(5, 1000, 1.0);
  const double trained = uarch.run_branches(5, 1000, 1.0);
  EXPECT_LT(trained, first * 0.5);
  EXPECT_GT(trained, 0.0);  // random branches never go to zero
}

TEST(MicroArch, PredictableBranchesRarelyMispredict) {
  MicroArchState uarch;
  const double mispredicts = uarch.run_branches(5, 1000, 0.0);
  EXPECT_EQ(mispredicts, 0.0);
}

TEST(Executor, BlockStatsReflectClassCounts) {
  MicroArchState uarch;
  InstructionBlock b;
  b.class_counts[InstructionClass::kIntAlu] = 100;
  b.uops = 110;
  const pmu::ExecutionStats stats = execute_block(b, uarch);
  EXPECT_DOUBLE_EQ(stats.class_counts[InstructionClass::kIntAlu], 100.0);
  EXPECT_DOUBLE_EQ(stats.uops, 110.0);
  EXPECT_GE(stats.cycles, 110.0 / 4.0);
}

TEST(Executor, MemoryBlocksProduceAccessesAndMisses) {
  MicroArchState uarch;
  InstructionBlock b;
  b.region = 7;
  b.read_bytes = 6400;  // 100 lines
  const pmu::ExecutionStats stats = execute_block(b, uarch);
  EXPECT_DOUBLE_EQ(stats.mem_reads, 100.0);
  EXPECT_GT(stats.l1_misses, 50.0);  // cold region
  const pmu::ExecutionStats warm = execute_block(b, uarch);
  EXPECT_LT(warm.l1_misses, stats.l1_misses * 0.2);
}

TEST(Executor, MissesMakeBlocksSlower) {
  MicroArchState cold_state, warm_state;
  InstructionBlock b;
  b.region = 7;
  b.read_bytes = 64000;
  b.uops = 100;
  (void)execute_block(b, warm_state);  // warm the second state
  const double cold_cycles = execute_block(b, cold_state).cycles;
  const double warm_cycles = execute_block(b, warm_state).cycles;
  EXPECT_GT(cold_cycles, warm_cycles);
}

TEST(Executor, SerializationAddsFixedCost) {
  MicroArchState uarch;
  InstructionBlock b;
  b.serialize_count = 2;
  const CostModel cost;
  const pmu::ExecutionStats stats = execute_block(b, uarch, cost);
  EXPECT_GE(stats.cycles, 2 * cost.serialize_cycles);
}

TEST(InstructionBlock, ScaledMultipliesLinearFields) {
  InstructionBlock b;
  b.class_counts[InstructionClass::kLoad] = 4;
  b.uops = 10;
  b.read_bytes = 100;
  b.serialize_count = 1;
  const InstructionBlock s = b.scaled(2.5);
  EXPECT_DOUBLE_EQ(s.class_counts[InstructionClass::kLoad], 10.0);
  EXPECT_DOUBLE_EQ(s.uops, 25.0);
  EXPECT_DOUBLE_EQ(s.read_bytes, 250.0);
  EXPECT_DOUBLE_EQ(s.serialize_count, 2.5);
}

TEST(InstructionBlock, FromVariantLoadAndStore) {
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  const isa::InstructionVariant* load = nullptr;
  const isa::InstructionVariant* store = nullptr;
  const isa::InstructionVariant* flush = nullptr;
  for (const auto& v : spec.variants()) {
    if (!v.legal()) continue;
    if (!load && v.has_memory_operand && !v.is_store &&
        v.iclass != InstructionClass::kCacheFlush) {
      load = &v;
    }
    if (!store && v.is_store) store = &v;
    if (!flush && v.iclass == InstructionClass::kCacheFlush) flush = &v;
  }
  ASSERT_NE(load, nullptr);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(flush, nullptr);
  const auto lb = InstructionBlock::from_variant(*load, 10, 3);
  EXPECT_GT(lb.read_bytes, 0.0);
  EXPECT_EQ(lb.write_bytes, 0.0);
  const auto sb = InstructionBlock::from_variant(*store, 10, 3);
  EXPECT_GT(sb.write_bytes, 0.0);
  const auto fb = InstructionBlock::from_variant(*flush, 10, 3);
  EXPECT_GT(fb.flush_bytes, 0.0);
  EXPECT_EQ(fb.read_bytes, 0.0);
}

TEST(VirtualMachine, ExecutesQueuedWork) {
  VirtualMachine vm(VmConfig{}, 1);
  InstructionBlock b;
  b.uops = 1000;
  vm.submit(b);
  EXPECT_TRUE(vm.pending());
  const pmu::ExecutionStats stats = vm.run_slice();
  EXPECT_GE(stats.uops, 1000.0);
  EXPECT_FALSE(vm.pending());
}

TEST(VirtualMachine, WorkCarriesOverWhenBudgetExceeded) {
  VmConfig config;
  config.slice_budget_cycles = 1000.0;
  config.interrupt_rate = 0.0;
  VirtualMachine vm(config, 2);
  // 40 blocks of ~500 cycles each: ~20 slices of work.
  for (int i = 0; i < 40; ++i) {
    InstructionBlock b;
    b.uops = 2000;  // 500 cycles at width 4
    vm.submit(b);
  }
  (void)vm.run_slice();
  EXPECT_TRUE(vm.pending());
  int slices = 1;
  while (vm.pending() && slices < 100) {
    (void)vm.run_slice();
    ++slices;
  }
  EXPECT_GE(slices, 15);
  EXPECT_LE(slices, 30);
}

TEST(VirtualMachine, CpuUsageTracksBusyFraction) {
  VmConfig config;
  config.slice_budget_cycles = 10000.0;
  config.interrupt_rate = 0.0;
  VirtualMachine vm(config, 3);
  for (int t = 0; t < 100; ++t) {
    InstructionBlock b;
    b.uops = 8000;  // 2000 cycles = 20 % of the budget
    vm.submit(b);
    (void)vm.run_slice();
  }
  EXPECT_NEAR(vm.cpu_usage(), 0.2, 0.03);
}

TEST(VirtualMachine, InterruptsArriveWhenIdle) {
  VmConfig config;
  config.interrupt_rate = 2.0;
  VirtualMachine vm(config, 4);
  double total_irqs = 0.0;
  for (int t = 0; t < 300; ++t) total_irqs += vm.run_slice().interrupts;
  EXPECT_NEAR(total_irqs / 300.0, 2.0, 0.4);
}

TEST(VirtualMachine, LastSliceStatsExposed) {
  VirtualMachine vm(VmConfig{}, 5);
  InstructionBlock b;
  b.uops = 777;
  vm.submit(b);
  (void)vm.run_slice();
  EXPECT_GE(vm.last_slice_stats().uops, 777.0);
}

TEST(HostMonitor, ProducesPerSliceDeltas) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  VirtualMachine vm(VmConfig{}, 6);
  HostMonitor monitor(db, 7);
  BlockSource source = [](std::size_t) {
    InstructionBlock b;
    b.uops = 5000;
    return std::vector<InstructionBlock>{b};
  };
  const MonitorResult result = monitor.monitor(vm, source, {uops_id}, 50);
  ASSERT_EQ(result.samples.size(), 50u);
  ASSERT_EQ(result.samples[0].size(), 1u);
  double total = 0.0;
  for (const auto& row : result.samples) total += row[0];
  // ~5000 uops per slice plus interrupt-handler uops.
  EXPECT_NEAR(total / 50.0, 5000.0, 2000.0);
}

TEST(HostMonitor, TotalsMatchSummedDeltas) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  BlockSource source = [](std::size_t) {
    InstructionBlock b;
    b.uops = 3000;
    return std::vector<InstructionBlock>{b};
  };
  VirtualMachine vm(VmConfig{}, 8);
  HostMonitor monitor(db, 9);
  const MonitorResult result = monitor.monitor(vm, source, {uops_id}, 40);
  ASSERT_EQ(result.samples.size(), 40u);
  // One event never multiplexes, so no delta is clamped: the deltas sum
  // to the whole run's count of guest work plus interrupt-handler uops
  // (~1.2 IRQ/slice x 900 uops).
  double summed = 0.0;
  for (const auto& row : result.samples) {
    ASSERT_EQ(row.size(), 1u);
    summed += row[0];
  }
  EXPECT_GT(summed, 3000.0 * 40 * 0.9);
  EXPECT_LT(summed, (3000.0 + 2500.0) * 40);
}

TEST(HostMonitor, AgentBlocksAreIndistinguishableInflation) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  BlockSource source = [](std::size_t) {
    InstructionBlock b;
    b.uops = 1000;
    return std::vector<InstructionBlock>{b};
  };
  SliceAgent agent = [](VirtualMachine& vm, std::size_t) {
    InstructionBlock noise;
    noise.uops = 3000;
    vm.submit(noise);
  };
  VirtualMachine vm1(VmConfig{}, 10), vm2(VmConfig{}, 10);
  HostMonitor m1(db, 11), m2(db, 11);
  const auto summed = [](const MonitorResult& r) {
    double total = 0.0;
    for (const auto& row : r.samples) total += row[0];
    return total;
  };
  const double clean = summed(m1.monitor(vm1, source, {uops_id}, 40));
  VirtualMachine vm3(VmConfig{}, 10);
  const double defended = summed(m2.monitor(vm3, source, {uops_id}, 40, agent));
  // ~1000 guest uops per slice, then 3000 more from the agent.
  EXPECT_GT(clean, 1000.0 * 40 * 0.9);
  EXPECT_GT(defended, clean * 1.3);
}

// ---------------------------------------------------------------------------
// compile_block + execute_compiled must be bit-identical to execute_block:
// the fuzzer's caller-compiled gadget blocks rely on this to keep the whole
// fuzzing pipeline's counter streams unchanged (see DESIGN.md
// "Caller-compiled gadget blocks").

void expect_stats_equal(const pmu::ExecutionStats& a,
                        const pmu::ExecutionStats& b, int step) {
  for (std::size_t i = 0; i < a.class_counts.size(); ++i) {
    EXPECT_EQ(a.class_counts.at_index(i), b.class_counts.at_index(i))
        << "class " << i << " step " << step;
  }
  EXPECT_EQ(a.uops, b.uops) << step;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << step;
  EXPECT_EQ(a.llc_misses, b.llc_misses) << step;
  EXPECT_EQ(a.l1_writes, b.l1_writes) << step;
  EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts) << step;
  EXPECT_EQ(a.mem_reads, b.mem_reads) << step;
  EXPECT_EQ(a.mem_writes, b.mem_writes) << step;
  EXPECT_EQ(a.interrupts, b.interrupts) << step;
  EXPECT_EQ(a.cycles, b.cycles) << step;
}

TEST(ExecutorCompiled, BitIdenticalToExecuteBlock) {
  // Blocks chosen to light up every term of the cycle accounting: memory
  // traffic (miss costs), high-entropy branches (mispredict costs), a
  // serializing flush block, and divider/x87 pressure.
  InstructionBlock memory;
  memory.region = 3;
  memory.class_counts[InstructionClass::kLoad] = 40;
  memory.class_counts[InstructionClass::kStore] = 12;
  memory.uops = 180;
  memory.read_bytes = 8192;
  memory.write_bytes = 2048;
  memory.locality = 0.4;

  InstructionBlock branchy;
  branchy.region = 4;
  branchy.class_counts[InstructionClass::kBranch] = 60;
  branchy.class_counts[InstructionClass::kCall] = 6;
  branchy.uops = 200;
  branchy.branch_entropy = 0.9;

  InstructionBlock fenced;
  fenced.region = 3;
  fenced.class_counts[InstructionClass::kSerialize] = 2;
  fenced.class_counts[InstructionClass::kIntDiv] = 5;
  fenced.class_counts[InstructionClass::kFpDiv] = 3;
  fenced.class_counts[InstructionClass::kX87] = 7;
  fenced.uops = 90;
  fenced.serialize_count = 2;
  fenced.flush_bytes = 4096;

  InstructionBlock flush_all;
  flush_all.region = 4;
  flush_all.uops = 10;
  flush_all.flush_all = true;

  const InstructionBlock blocks[] = {memory, branchy, fenced, flush_all};
  CompiledBlock compiled[4];
  for (int i = 0; i < 4; ++i) compiled[i] = compile_block(blocks[i]);

  // Two states evolve in lockstep; the stats AND the hidden state updates
  // must match at every step, or the divergence compounds.
  MicroArchState plain_state;
  MicroArchState compiled_state;
  for (int step = 0; step < 32; ++step) {
    const int i = step % 4;
    const pmu::ExecutionStats a = execute_block(blocks[i], plain_state);
    const pmu::ExecutionStats b = execute_compiled(compiled[i], compiled_state);
    expect_stats_equal(a, b, step);
    EXPECT_EQ(plain_state.l1_residency(3), compiled_state.l1_residency(3));
    EXPECT_EQ(plain_state.llc_residency(4), compiled_state.llc_residency(4));
    EXPECT_EQ(plain_state.predictor_warmth(4), compiled_state.predictor_warmth(4));
  }
}

TEST(ExecutorCompiled, RespectsCostModelItWasCompiledWith) {
  InstructionBlock b;
  b.class_counts[InstructionClass::kIntDiv] = 4;
  b.uops = 100;
  b.serialize_count = 1;
  CostModel cost;
  cost.issue_width = 2.0;
  cost.int_div_extra = 50.0;
  cost.serialize_cycles = 300.0;
  MicroArchState s1, s2;
  const pmu::ExecutionStats plain = execute_block(b, s1, cost);
  const pmu::ExecutionStats fused =
      execute_compiled(compile_block(b, cost), s2, cost);
  EXPECT_EQ(plain.cycles, fused.cycles);
}

TEST(GadgetRunner, RejectsIllegalVariants) {
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  std::uint32_t illegal = 0;
  for (const auto& v : spec.variants()) {
    if (!v.legal()) {
      illegal = v.uid;
      break;
    }
  }
  EXPECT_THROW((void)compile_gadget(spec, illegal, 8.0), std::invalid_argument);
}

TEST(GadgetRunner, MeasuresUopDeltaOfSimpleGadget) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  GadgetRunner runner(db, 13);
  runner.program({*db.find("RETIRED_UOPS")});
  std::uint32_t alu = 0;
  for (const auto& v : spec.variants()) {
    if (v.legal() && v.iclass == InstructionClass::kIntAlu &&
        !v.has_memory_operand) {
      alu = v.uid;
      break;
    }
  }
  const CompiledBlock gadget = compile_gadget(spec, alu, 32.0);
  const std::span<const double> delta =
      runner.execute_once(std::span(&gadget, 1));
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_GT(delta[0], 20.0);  // ~32 uops, modulo measurement noise
}

TEST(GadgetRunner, DirtyStatePersistsAcrossExecutions) {
  // The C6 confounder: a load gadget's misses vanish once the data page is
  // cached, unless some reset flushes it.
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  const auto spec = isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  GadgetRunner runner(db, 14);
  runner.program({*db.find("MAB_ALLOCATION_BY_PIPE")});
  std::uint32_t load = 0;
  for (const auto& v : spec.variants()) {
    if (v.legal() && v.has_memory_operand && !v.is_store &&
        v.iclass == InstructionClass::kLoad) {
      load = v.uid;
      break;
    }
  }
  const CompiledBlock gadget = compile_gadget(spec, load, 32.0);
  const std::span<const CompiledBlock> seq(&gadget, 1);
  const double first = runner.execute_once(seq)[0];
  const double second = runner.execute_once(seq)[0];
  EXPECT_GT(first, second + 0.5);
  runner.reset_machine_state();
  const double after_reset = runner.execute_once(seq)[0];
  EXPECT_GT(after_reset, second + 0.5);
}

TEST(GadgetRunner, ProgramRejectsMoreThanFourEvents) {
  const auto db = pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  GadgetRunner runner(db, 15);
  EXPECT_THROW(runner.program({0, 1, 2, 3, 4}), std::invalid_argument);
}

}  // namespace
}  // namespace aegis::sim
