// Trace-collection guards: the workload -> VirtualMachine -> HostMonitor ->
// CounterRegisterFile slice loop that every attack, the profiler's ranking
// and the obfuscator's calibration run through.
//
//   * CollectionDigest: FNV-1a digests over every double bit the collection
//     entry points return (monitor for each workload, with and without an
//     obfuscator agent; monitor_stepped with a planner; totals;
//     obf::calibrate_events). The digests were captured before the slice
//     loop stopped copying blocks and recomputing Poisson limits, so any
//     change to a draw, a block order or an accumulation order fails here.
//   * VmQueue: the VM's FIFO contract — carry-over across slices, forward
//     progress for oversized blocks, submits into a partly drained queue,
//     and pending() tracking the drain exactly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obf/obfuscator.hpp"
#include "sim/host_monitor.hpp"
#include "sim/virtual_machine.hpp"
#include "util/hash.hpp"
#include "workload/crypto.hpp"
#include "workload/dnn.hpp"
#include "workload/idle.hpp"
#include "workload/keystroke.hpp"
#include "workload/website.hpp"

namespace aegis {
namespace {

using isa::CpuModel;
using isa::InstructionClass;

constexpr std::size_t kSlices = 120;

std::uint64_t digest(const sim::MonitorResult& r) {
  std::uint64_t h = util::hash_combine(util::kFnvOffset,
                                       std::uint64_t{r.samples.size()});
  for (const auto& row : r.samples) {
    h = util::hash_combine(h, std::uint64_t{row.size()});
    for (double v : row) h = util::hash_combine(h, v);
  }
  h = util::hash_combine(h, r.slices);
  return util::hash_combine(h, r.busy_cycles);
}

std::uint64_t digest(const std::vector<double>& values) {
  std::uint64_t h =
      util::hash_combine(util::kFnvOffset, std::uint64_t{values.size()});
  for (double v : values) h = util::hash_combine(h, v);
  return h;
}

std::uint64_t digest(const std::vector<obf::EventCalibration>& cals) {
  std::uint64_t h =
      util::hash_combine(util::kFnvOffset, std::uint64_t{cals.size()});
  for (const auto& c : cals) {
    h = util::hash_combine(h, std::uint64_t{c.event_id});
    h = util::hash_combine(h, c.stddev);
    h = util::hash_combine(h, c.mean);
    h = util::hash_combine(h, c.peak);
  }
  return h;
}

struct Fixture {
  pmu::EventDatabase db = pmu::EventDatabase::generate(CpuModel::kAmdEpyc7252);
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(CpuModel::kAmdEpyc7252);

  /// Six events (so the register file multiplexes two groups): two
  /// guest-visible ones plus two host-background events on each Poisson
  /// branch (Knuth below rate 30, the normal approximation above).
  std::vector<std::uint32_t> events() const {
    std::vector<std::uint32_t> ids = {*db.find("RETIRED_UOPS"),
                                      *db.find("DATA_CACHE_REFILLS_FROM_SYSTEM")};
    std::size_t knuth = 0;
    std::size_t normal = 0;
    for (const auto& e : db.events()) {
      const double bg = e.response.host_background;
      if (bg <= 0.0) continue;
      std::size_t& taken = bg < 30.0 ? knuth : normal;
      if (taken == 2) continue;
      ++taken;
      ids.push_back(e.id);
      if (ids.size() == 6) break;
    }
    return ids;
  }

  std::uint32_t find_variant(InstructionClass iclass, bool mem = false) const {
    for (const auto& v : spec.variants()) {
      if (v.legal() && v.iclass == iclass && v.has_memory_operand == mem) {
        return v.uid;
      }
    }
    throw std::runtime_error("variant not found");
  }

  /// A fresh obfuscator over a hand-made two-gadget cover; one per run so
  /// its noise stream starts from the same state every time.
  std::unique_ptr<obf::EventObfuscator> obfuscator(std::uint64_t seed) const {
    fuzzer::GadgetCover cover;
    cover.gadgets = {
        {find_variant(InstructionClass::kNop),
         find_variant(InstructionClass::kIntDiv, true)},
        {find_variant(InstructionClass::kCacheFlush, true),
         find_variant(InstructionClass::kLoad, true)},
    };
    const std::uint32_t uops = *db.find("RETIRED_UOPS");
    const std::uint32_t refills = *db.find("DATA_CACHE_REFILLS_FROM_SYSTEM");
    cover.covered_events = {uops, refills};
    cover.segment_effect = {{uops, 14.0}, {refills, 1.0}};
    obf::ObfuscatorConfig config;
    config.mechanism.kind = dp::MechanismKind::kLaplace;
    config.mechanism.epsilon = 1.0;
    config.reference_event = uops;
    config.reference_sigma = 1000.0;
    config.unit_reps = 400.0;  // large enough to split into several chunks
    config.seed = seed;
    return std::make_unique<obf::EventObfuscator>(db, spec, cover, config);
  }

  std::uint64_t monitor_digest(const workload::Workload& w, bool defended,
                               std::uint64_t seed) const {
    sim::VirtualMachine vm(sim::VmConfig{}, seed);
    sim::HostMonitor monitor(db, seed + 1);
    std::unique_ptr<obf::EventObfuscator> obf;
    sim::SliceAgent agent;
    if (defended) {
      obf = obfuscator(seed + 2);
      agent = obf->session();
    }
    return digest(
        monitor.monitor(vm, w.visit(seed + 3), events(), kSlices, agent));
  }
};

struct Pinned {
  const char* name;
  std::unique_ptr<workload::Workload> workload;
  std::uint64_t clean;
  std::uint64_t defended;
};

TEST(CollectionDigest, MonitorPinnedPerWorkload) {
  const Fixture f;
  ASSERT_EQ(f.events().size(), 6u);
  std::vector<Pinned> cases;
  cases.push_back({"website",
                   std::make_unique<workload::WebsiteWorkload>(7, kSlices),
                   0xf3c78e3c4a92392eULL, 0x932b961ee048ff50ULL});
  cases.push_back({"dnn", std::make_unique<workload::DnnWorkload>(3, kSlices),
                   0xc6df2afc8d99d90aULL, 0xaf8ecd9a4445d615ULL});
  cases.push_back({"keystroke",
                   std::make_unique<workload::KeystrokeWorkload>(5, kSlices),
                   0xe96505811d123dd7ULL, 0x52de4ad0b74e7b62ULL});
  cases.push_back(
      {"crypto",
       std::make_unique<workload::CryptoWorkload>(
           workload::CryptoWorkload::derive_key(16, 9), kSlices),
       0xc6f7d35ba03d21deULL, 0xeafc5c4071daa17bULL});
  cases.push_back({"idle", std::make_unique<workload::IdleWorkload>(kSlices),
                   0x390d7de1b2184cd0ULL, 0x03decd1692b20b6fULL});
  std::uint64_t seed = 100;
  for (const Pinned& c : cases) {
    EXPECT_EQ(f.monitor_digest(*c.workload, false, seed), c.clean)
        << c.name << " clean";
    EXPECT_EQ(f.monitor_digest(*c.workload, true, seed), c.defended)
        << c.name << " defended";
    seed += 10;
  }
}

TEST(CollectionDigest, MonitorSteppedPinned) {
  const Fixture f;
  const workload::WebsiteWorkload site(12, kSlices);
  // Coalesces 1-3 base slices per sample, chosen from the last delta's
  // value, so the planner sees (and the digest pins) every recorded bit.
  const sim::SlicePlanner planner = [](std::size_t,
                                       const std::vector<double>& last) {
    if (last.empty()) return std::size_t{2};
    return static_cast<std::size_t>(static_cast<std::uint64_t>(last[0]) % 3) +
           1;
  };
  for (bool defended : {false, true}) {
    sim::VirtualMachine vm(sim::VmConfig{}, 300);
    sim::HostMonitor monitor(f.db, 301);
    std::unique_ptr<obf::EventObfuscator> obf;
    sim::SliceAgent agent;
    if (defended) {
      obf = f.obfuscator(302);
      agent = obf->session();
    }
    const sim::MonitorResult r = monitor.monitor_stepped(
        vm, site.visit(303), f.events(), kSlices, planner, agent);
    EXPECT_LT(r.samples.size(), kSlices);
    const std::uint64_t pinned =
        defended ? 0xdb2978e6756590ebULL : 0xb5b881c461dbd07cULL;
    EXPECT_EQ(digest(r), pinned) << (defended ? "defended" : "clean");
  }
}

TEST(CollectionDigest, TotalsPinned) {
  const Fixture f;
  const workload::DnnWorkload model(5, kSlices);
  sim::VirtualMachine vm(sim::VmConfig{}, 400);
  sim::HostMonitor monitor(f.db, 401);
  // Two back-to-back runs on one VM: the second starts with the first's
  // leftover queue and warmed micro-architectural state.
  const std::vector<double> first =
      monitor.totals(vm, model.visit(402), f.events(), kSlices);
  const std::vector<double> second =
      monitor.totals(vm, model.visit(403), f.events(), kSlices / 2);
  EXPECT_EQ(digest(first), 0x7601fc7ba482f3a3ULL);
  EXPECT_EQ(digest(second), 0x0214b8c0dcf25951ULL);
}

TEST(CollectionDigest, CalibrateEventsPinned) {
  const Fixture f;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  for (std::size_t site = 0; site < 3; ++site) {
    secrets.push_back(std::make_unique<workload::WebsiteWorkload>(site, 60));
  }
  const auto cals = obf::calibrate_events(f.db, f.events(), secrets, 2, 500);
  ASSERT_EQ(cals.size(), f.events().size());
  EXPECT_EQ(digest(cals), 0xf945ce10679b8b3bULL);
}

// ---------------------------------------------------------------------------
// VM queue contract.

sim::VmConfig quiet_config(double budget) {
  sim::VmConfig config;
  config.slice_budget_cycles = budget;
  config.interrupt_rate = 0.0;
  return config;
}

/// A block costing uops / issue_width cycles, tagged by its uop count.
sim::InstructionBlock tagged(double uops) {
  sim::InstructionBlock b;
  b.uops = uops;
  return b;
}

TEST(VmQueue, CarriesOverInFifoOrderWhenBudgetRunsOut) {
  // Each block alone exceeds the 1000-cycle budget (>= 4000 uops at width
  // 4), so exactly one runs per slice and the slice's uops name it.
  sim::VirtualMachine vm(quiet_config(1000.0), 1);
  for (int i = 0; i < 6; ++i) vm.submit(tagged(4000.0 + i));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(vm.pending());
    EXPECT_EQ(vm.run_slice().uops, 4000.0 + i) << "slice " << i;
  }
  EXPECT_FALSE(vm.pending());
  EXPECT_EQ(vm.run_slice().uops, 0.0);
}

TEST(VmQueue, SmallBlocksShareASliceInOrder) {
  // 500-cycle blocks against a 1000-cycle budget: two per slice, and the
  // split point is the same whether blocks arrive together or per slice.
  sim::VirtualMachine vm(quiet_config(1000.0), 2);
  for (int i = 0; i < 5; ++i) vm.submit(tagged(2000.0));
  EXPECT_EQ(vm.run_slice().uops, 4000.0);
  EXPECT_EQ(vm.run_slice().uops, 4000.0);
  EXPECT_TRUE(vm.pending());
  EXPECT_EQ(vm.run_slice().uops, 2000.0);
  EXPECT_FALSE(vm.pending());
}

TEST(VmQueue, OversizedBlockStillMakesForwardProgress) {
  // Interrupts alone overrun the budget every slice; one queued block must
  // still execute per slice, whole, however large it is.
  sim::VmConfig config;
  config.slice_budget_cycles = 1000.0;
  config.interrupt_rate = 5.0;
  config.interrupt_cycles = 1.0e6;
  sim::VirtualMachine vm(config, 3);
  vm.submit(tagged(1.0e9));
  vm.submit(tagged(8.0));
  const pmu::ExecutionStats first = vm.run_slice();
  EXPECT_GE(first.uops, 1.0e9);
  EXPECT_LT(first.uops, 1.0e9 + 8.0 + first.interrupts * config.interrupt_uops);
  ASSERT_TRUE(vm.pending());
  const pmu::ExecutionStats second = vm.run_slice();
  EXPECT_EQ(second.uops, 8.0 + second.interrupts * config.interrupt_uops);
  EXPECT_FALSE(vm.pending());
}

/// Blocks tagged first, first + 1, ..., first + n - 1, as one batch.
std::vector<sim::InstructionBlock> batch(int first, int n) {
  std::vector<sim::InstructionBlock> blocks;
  for (int i = first; i < first + n; ++i) blocks.push_back(tagged(4000.0 + i));
  return blocks;
}

TEST(VmQueue, SubmitIntoPartlyDrainedQueueKeepsOrder) {
  // Both submit forms, single blocks and a handed-over vector, each landing
  // behind blocks that are still pending.
  sim::VirtualMachine vm(quiet_config(1000.0), 4);
  for (int i = 0; i < 4; ++i) vm.submit(tagged(4000.0 + i));
  EXPECT_EQ(vm.run_slice().uops, 4000.0);
  EXPECT_EQ(vm.run_slice().uops, 4001.0);
  vm.submit(tagged(4004.0));
  EXPECT_EQ(vm.run_slice().uops, 4002.0);
  vm.submit(batch(5, 4));
  for (int i = 3; i < 9; ++i) {
    EXPECT_EQ(vm.run_slice().uops, 4000.0 + i) << "slice " << i;
  }
  EXPECT_FALSE(vm.pending());
}

TEST(VmQueue, PendingIsFalseExactlyWhenDrained) {
  sim::VirtualMachine vm(quiet_config(1000.0), 5);
  EXPECT_FALSE(vm.pending());
  for (int round = 0; round < 3; ++round) {
    // Handed-over vectors into a drained queue: the queue adopts them.
    const int blocks = 2 + round;
    vm.submit(batch(10 * round, blocks));
    for (int i = 0; i < blocks; ++i) {
      EXPECT_TRUE(vm.pending()) << "round " << round << " block " << i;
      EXPECT_EQ(vm.run_slice().uops, 4000.0 + 10 * round + i);
    }
    // The queue drained on the last slice; a refill after the drain starts
    // a new FIFO.
    EXPECT_FALSE(vm.pending()) << "round " << round;
  }
  vm.submit(tagged(4100.0));
  EXPECT_TRUE(vm.pending());
  EXPECT_EQ(vm.run_slice().uops, 4100.0);
  EXPECT_FALSE(vm.pending());
  vm.submit(std::vector<sim::InstructionBlock>{});
  EXPECT_FALSE(vm.pending());
}

}  // namespace
}  // namespace aegis
