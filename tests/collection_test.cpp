// Trace-collection guards: the workload -> VirtualMachine -> HostMonitor ->
// CounterRegisterFile slice loop that every attack runs through, and the
// group sweep (sim::sweep_groups) behind warm-up, ranking and calibration,
// which simulates each run once and reads it through one register file per
// 4-event group.
//
//   * CollectionDigest: FNV-1a digests over every double bit the collection
//     entry points return (monitor for each workload, with and without an
//     obfuscator agent; monitor_stepped with a planner; monitor's totals;
//     obf::calibrate_events; the profiler's warm-up survivors). The monitor
//     digests were captured before the slice loop stopped copying blocks
//     and recomputing Poisson limits; the calibration and warm-up digests
//     when the group sweep began simulating each job once for every group.
//     So any change to a draw, a block order or an accumulation order fails
//     here.
//   * GroupSweep: the sweep engine's contract — in-order 4-event groups
//     with a short tail, every slice streamed once, the VM, visit and
//     per-group noise seeds drawn in job order, one visit per job, nothing
//     run for an empty event list, a part of a list reading the whole
//     list's runs, identical results on 1 and 4 workers, and per-event
//     moments that match a run per group.
//   * VmQueue: the VM's FIFO contract — carry-over across slices, forward
//     progress for oversized blocks, submits into a partly drained queue,
//     and pending() tracking the drain exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obf/obfuscator.hpp"
#include "profiler/profiler.hpp"
#include "sim/group_sweep.hpp"
#include "sim/host_monitor.hpp"
#include "sim/virtual_machine.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
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
      monitor.monitor(vm, model.visit(402), f.events(), kSlices).totals;
  const std::vector<double> second =
      monitor.monitor(vm, model.visit(403), f.events(), kSlices / 2).totals;
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
  EXPECT_EQ(digest(cals), 0x51f11a90476006d8ULL);
}

TEST(CollectionDigest, WarmupPinned) {
  const Fixture f;
  profiler::ProfilerConfig config;
  config.seed = 7;
  config.warmup_slices = 30;
  config.warmup_repeats = 2;
  config.num_threads = 0;
  const workload::WebsiteWorkload app(0, config.warmup_slices);
  // Default thresholds plus two tighter pairs: a shifted draw moves some
  // event across one of the three cut-offs.
  struct Cut {
    double rel;
    double abs;
    std::uint64_t pinned;
  };
  const Cut cuts[] = {{0.30, 30.0, 0xc51463ef49958a47ULL},    // 136 events
                      {10.0, 3000.0, 0xb996e3807040d842ULL},   // 96
                      {3.0, 30000.0, 0xc98bb17459f6fb08ULL}};  // 32
  for (const Cut& cut : cuts) {
    config.warmup_rel_change = cut.rel;
    config.warmup_abs_change = cut.abs;
    const profiler::WarmupReport report =
        profiler::ApplicationProfiler(f.db, config).warmup(app);
    EXPECT_EQ(report.total_events, f.db.size());
    std::uint64_t h = util::hash_combine(
        util::kFnvOffset, std::uint64_t{report.surviving.size()});
    for (std::uint32_t id : report.surviving) {
      h = util::hash_combine(h, std::uint64_t{id});
    }
    for (std::size_t n : report.after_by_type) {
      h = util::hash_combine(h, std::uint64_t{n});
    }
    EXPECT_EQ(h, cut.pinned) << "rel " << cut.rel << " abs " << cut.abs;
  }
}

// ---------------------------------------------------------------------------
// Group sweep contract.

/// A sweep reader keeping everything the engine streams: each slice's index
/// and delta row, and the final reads.
struct Recorder {
  std::vector<std::size_t> slice_index;
  std::vector<std::vector<double>> rows;
  std::vector<double> totals;
  std::size_t finishes = 0;
  void slice(std::size_t t, std::span<const double> delta) {
    slice_index.push_back(t);
    rows.emplace_back(delta.begin(), delta.end());
  }
  void finish(std::span<const double> reads) {
    totals.assign(reads.begin(), reads.end());
    ++finishes;
  }
};

constexpr auto kRecord = [](std::size_t) { return Recorder{}; };

std::uint64_t digest(const Recorder& r) {
  std::uint64_t h = util::hash_combine(util::kFnvOffset, r.finishes);
  for (const auto& row : r.rows) h = util::hash_combine(h, digest(row));
  return util::hash_combine(h, digest(r.totals));
}

/// Counts the visits, that is the simulated runs, of the wrapped workload.
class CountingWorkload final : public workload::Workload {
 public:
  CountingWorkload(std::size_t slices, std::atomic<std::size_t>* visits)
      : inner_(3, slices), visits_(visits) {}
  sim::BlockSource visit(std::uint64_t seed) const override {
    visits_->fetch_add(1);
    return inner_.visit(seed);
  }
  std::size_t trace_slices() const override { return inner_.trace_slices(); }
  std::string name() const override { return inner_.name(); }

 private:
  workload::WebsiteWorkload inner_;
  std::atomic<std::size_t>* visits_;
};

/// Runs the sweep over `events` with two workloads x two runs and returns
/// one digest per job, in job order.
std::vector<std::uint64_t> sweep_digests(
    const Fixture& f, const std::vector<std::uint32_t>& events,
    util::ThreadPool* pool) {
  const workload::WebsiteWorkload site(4, 30);
  const workload::DnnWorkload model(2, 20);
  const std::vector<sim::SweepJob> jobs = {
      {&site, 30}, {&site, 30}, {&model, 20}, {&model, 20}};
  std::vector<std::uint64_t> digests;
  for (const Recorder& r : sim::sweep_groups(f.db, events, jobs,
                                             util::Rng(77), kRecord,
                                             {sim::VmConfig{}, pool})) {
    digests.push_back(digest(r));
  }
  return digests;
}

TEST(GroupSweep, SplitsEventsInOrderWithAShortTailGroup) {
  const Fixture f;
  const std::vector<std::uint32_t> events = f.events();  // 6 = 4 + 2
  const workload::IdleWorkload idle(25);
  const std::vector<sim::SweepJob> jobs = {{&idle, 25}, {&idle, 10}};
  EXPECT_EQ(sim::sweep_group_count(events.size()), 2u);
  const std::vector<Recorder> out =
      sim::sweep_groups(f.db, events, jobs, util::Rng(3), kRecord);
  ASSERT_EQ(out.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Every slice once, in order, with a delta for every event of both
    // groups; then the final reads once.
    ASSERT_EQ(out[j].slice_index.size(), jobs[j].slices) << "job " << j;
    for (std::size_t t = 0; t < jobs[j].slices; ++t) {
      EXPECT_EQ(out[j].slice_index[t], t);
      EXPECT_EQ(out[j].rows[t].size(), events.size());
    }
    EXPECT_EQ(out[j].finishes, 1u);
    EXPECT_EQ(out[j].totals.size(), events.size());
  }
}

TEST(GroupSweep, EachJobDrawsVmVisitAndNoiseSeedsInOrder) {
  const Fixture f;
  const std::vector<std::uint32_t> events = f.events();
  const workload::WebsiteWorkload site(4, 30);
  const workload::DnnWorkload model(2, 20);
  const std::vector<sim::SweepJob> jobs = {{&site, 30}, {&model, 20}};
  const std::vector<Recorder> swept =
      sim::sweep_groups(f.db, events, jobs, util::Rng(5), kRecord);
  ASSERT_EQ(swept.size(), jobs.size());
  // Replayed by hand from the same stream: per job the VM seed, the visit
  // seed, then one noise seed per group, the groups being the first four
  // events and the short tail.
  const std::vector<std::vector<std::uint32_t>> groups = {
      {events.begin(), events.begin() + 4}, {events.begin() + 4, events.end()}};
  util::Rng rng(5);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim::VirtualMachine vm(sim::VmConfig{}, rng.next_u64());
    const sim::BlockSource source = jobs[j].workload->visit(rng.next_u64());
    std::vector<pmu::CounterRegisterFile> counters;
    for (const auto& group : groups) {
      counters.emplace_back(f.db, rng.next_u64());
      counters.back().program(group);
    }
    Recorder want;
    std::vector<double> prev(events.size(), 0.0);
    for (std::size_t t = 0; t < jobs[j].slices; ++t) {
      vm.submit(source(t));
      const pmu::ExecutionStats stats = vm.run_slice();
      std::vector<double> now;
      for (auto& file : counters) {
        file.tick(stats);
        const std::vector<double> read = file.read_all();
        now.insert(now.end(), read.begin(), read.end());
      }
      std::vector<double> delta(events.size());
      for (std::size_t e = 0; e < events.size(); ++e) {
        delta[e] = std::max(now[e] - prev[e], 0.0);
      }
      want.slice(t, delta);
      prev = now;
    }
    want.finish(prev);
    EXPECT_EQ(swept[j].rows, want.rows) << "job " << j;
    EXPECT_EQ(swept[j].totals, want.totals) << "job " << j;
  }
}

TEST(GroupSweep, PartOfAListReadsTheWholeListsRuns) {
  const Fixture f;
  const std::vector<std::uint32_t> events = f.events();  // groups 4 + 2
  const workload::WebsiteWorkload site(4, 30);
  const std::vector<sim::SweepJob> jobs = {{&site, 30}, {&site, 30}};
  const std::vector<Recorder> whole =
      sim::sweep_groups(f.db, events, jobs, util::Rng(8), kRecord);
  // The tail group alone, as the second group of a two-group list.
  const std::vector<std::uint32_t> tail(events.begin() + 4, events.end());
  sim::SweepOptions options;
  options.first_group = 1;
  options.total_groups = 2;
  const std::vector<Recorder> part =
      sim::sweep_groups(f.db, tail, jobs, util::Rng(8), kRecord, options);
  ASSERT_EQ(part.size(), whole.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ASSERT_EQ(part[j].rows.size(), whole[j].rows.size());
    for (std::size_t t = 0; t < part[j].rows.size(); ++t) {
      EXPECT_EQ(part[j].rows[t],
                std::vector<double>(whole[j].rows[t].begin() + 4,
                                    whole[j].rows[t].end()))
          << "job " << j << " slice " << t;
    }
  }
}

TEST(GroupSweep, EachJobIsSimulatedOnce) {
  const Fixture f;
  std::atomic<std::size_t> visits{0};
  const CountingWorkload site(20, &visits);
  const std::vector<sim::SweepJob> jobs(5, sim::SweepJob{&site, 20});
  util::ThreadPool four(4);
  // One group, one full group, and two full groups plus a short tail: the
  // groups read each run instead of re-running it.
  for (std::size_t n : {1u, 4u, 9u}) {
    std::vector<std::uint32_t> events;
    for (std::uint32_t id = 0; events.size() < n; ++id) events.push_back(id);
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                   &four}) {
      visits = 0;
      const std::vector<Recorder> out = sim::sweep_groups(
          f.db, events, jobs, util::Rng(9), kRecord, {sim::VmConfig{}, pool});
      EXPECT_EQ(out.size(), jobs.size());
      EXPECT_EQ(visits.load(), jobs.size()) << n << " events";
    }
  }
}

TEST(GroupSweep, EmptyEventListRunsNoJobAndNoReduction) {
  const Fixture f;
  std::atomic<std::size_t> visits{0};
  const CountingWorkload site(10, &visits);
  std::size_t readers = 0;
  const std::vector<Recorder> out = sim::sweep_groups(
      f.db, {}, {{&site, 10}}, util::Rng(1), [&](std::size_t) {
        ++readers;
        return Recorder{};
      });
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(readers, 0u);
  EXPECT_EQ(visits.load(), 0u);
}

TEST(GroupSweep, IdenticalOnOneAndFourWorkers) {
  const Fixture f;
  // 11 events: three groups, the last one short.
  std::vector<std::uint32_t> events = f.events();
  for (std::uint32_t id = 0; events.size() < 11; ++id) events.push_back(id);
  const std::vector<std::uint64_t> serial = sweep_digests(f, events, nullptr);
  ASSERT_EQ(serial.size(), 4u);
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  EXPECT_EQ(sweep_digests(f, events, &one), serial);
  EXPECT_EQ(sweep_digests(f, events, &four), serial);
}

// Relative tolerances for SharedRunMatchesPerGroupRunsInDistribution: about
// twice the largest gap seen over ten seed pairs of this test (2.9% of the
// mean, 6.6% of sigma).
constexpr double kMeanTolerance = 0.06;
constexpr double kSigmaTolerance = 0.15;

/// Per-event mean and sample sigma of every slice's delta, in event order.
struct EventStats {
  std::vector<double> mean;
  std::vector<double> sigma;
};

EventStats event_stats(const std::vector<std::vector<double>>& columns) {
  EventStats s;
  for (const auto& column : columns) {
    s.mean.push_back(util::mean(column));
    s.sigma.push_back(util::stddev(column));
  }
  return s;
}

// The shared run changes only the correlation across groups: each event's
// per-slice distribution must match the one it gets when every group runs
// the job on its own VM (the per-group loop the engine replaced, kept here
// as the reference). Fixed seeds, so the test is deterministic.
TEST(GroupSweep, SharedRunMatchesPerGroupRunsInDistribution) {
  const Fixture f;
  const std::vector<std::uint32_t> events = f.events();
  std::vector<std::unique_ptr<workload::Workload>> sites;
  for (std::size_t s = 0; s < 3; ++s) {
    sites.push_back(std::make_unique<workload::WebsiteWorkload>(s, 60));
  }
  constexpr std::size_t kRuns = 16;
  const std::vector<sim::SweepJob> jobs =
      sim::secret_jobs(sites, kRuns, "SharedRunMatchesPerGroupRuns");

  std::vector<std::vector<double>> shared(events.size());
  for (const Recorder& r :
       sim::sweep_groups(f.db, events, jobs, util::Rng(41), kRecord)) {
    for (const auto& row : r.rows) {
      for (std::size_t e = 0; e < events.size(); ++e) {
        shared[e].push_back(row[e]);
      }
    }
  }

  std::vector<std::vector<double>> per_group(events.size());
  util::Rng rng(42);
  constexpr std::size_t kGroup = pmu::EventDatabase::kNumCounters;
  for (std::size_t base = 0; base < events.size(); base += kGroup) {
    const std::vector<std::uint32_t> group(
        events.begin() + static_cast<std::ptrdiff_t>(base),
        events.begin() + static_cast<std::ptrdiff_t>(
                             std::min(events.size(), base + kGroup)));
    for (const sim::SweepJob& job : jobs) {
      sim::VirtualMachine vm(sim::VmConfig{}, rng.next_u64());
      sim::HostMonitor monitor(f.db, rng.next_u64());
      const sim::MonitorResult r = monitor.monitor(
          vm, job.workload->visit(rng.next_u64()), group, job.slices);
      for (const auto& row : r.samples) {
        for (std::size_t e = 0; e < group.size(); ++e) {
          per_group[base + e].push_back(row[e]);
        }
      }
    }
  }

  const EventStats got = event_stats(shared);
  const EventStats want = event_stats(per_group);
  for (std::size_t e = 0; e < events.size(); ++e) {
    ASSERT_EQ(shared[e].size(), per_group[e].size());
    EXPECT_GT(want.mean[e], 0.0) << "event " << e;
    EXPECT_NEAR(got.mean[e], want.mean[e], kMeanTolerance * want.mean[e])
        << "event " << e;
    EXPECT_NEAR(got.sigma[e], want.sigma[e], kSigmaTolerance * want.sigma[e])
        << "event " << e;
  }
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
