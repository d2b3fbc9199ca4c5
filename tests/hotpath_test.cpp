// Hot-path proof obligations (see DESIGN.md "PMU hot path"):
//   * the sparse group kernel reproduces EventResponse::expected_count and
//     the dense coefficient dot product bit-for-bit on every group of the
//     full AMD and Intel databases;
//   * CounterRegisterFile is bit-identical to a per-slot reference register
//     file (the by_id walk the kernel replaced), multiplexed or not;
//   * a seed-7 fuzzing shard and a profiler ranking reproduce digests
//     captured when the retired reference, scalar and SIMD engines were
//     still proven to agree;
//   * GadgetRunner::execute_once performs zero heap allocations, from the
//     first execution of a gadget on (instrumented global allocator).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "fuzzer/fuzzer.hpp"
#include "pmu/counter_file.hpp"
#include "pmu/backend/backend.hpp"
#include "pmu/event_database.hpp"
#include "pmu/response_matrix.hpp"
#include "profiler/profiler.hpp"
#include "sim/gadget_runner.hpp"
#include "telemetry/registry.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "workload/website.hpp"

// ---------------------------------------------------------------------------
// Instrumented allocator: counts every global operator new so tests can
// assert an allocation-free window. Disabled under sanitizers, whose
// runtimes own the allocator.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AEGIS_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AEGIS_ALLOC_HOOK 0
#else
#define AEGIS_ALLOC_HOOK 1
#endif
#else
#define AEGIS_ALLOC_HOOK 1
#endif

#if AEGIS_ALLOC_HOOK

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // AEGIS_ALLOC_HOOK

namespace aegis {
namespace {

using pmu::CounterRegisterFile;

struct Fixture {
  // Pinned to the AMD backend: hot-path goldens are AMD bit-identity
  // checks and must not follow AEGIS_CPU.
  const pmu::backend::PmuBackend& backend =
      pmu::backend::backend_for(isa::CpuModel::kAmdEpyc7252);
  const pmu::EventDatabase& db = backend.database();
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);

  std::vector<std::uint32_t> events() const {
    std::vector<std::uint32_t> ids = backend.attack_events();
    ids.push_back(*db.find("RETIRED_BRANCH_INSTRUCTIONS"));
    ids.push_back(*db.find("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR"));
    return ids;
  }
};

pmu::ExecutionStats busy_stats() {
  pmu::ExecutionStats stats;
  for (std::size_t i = 0; i < stats.class_counts.size(); ++i) {
    stats.class_counts.at_index(i) = 10.0 + static_cast<double>(i);
  }
  stats.uops = 1200.0;
  stats.l1_misses = 7.0;
  stats.llc_misses = 2.0;
  stats.l1_writes = 40.0;
  stats.branch_mispredicts = 3.0;
  stats.mem_reads = 220.0;
  stats.mem_writes = 90.0;
  stats.interrupts = 1.0;
  stats.cycles = 4000.0;
  return stats;
}

/// Test oracle: the per-slot register file CounterRegisterFile's group
/// kernel replaced. Every active slot looks its event up with
/// EventDatabase::by_id and evaluates EventResponse::expected_count, with
/// the same util::Rng(noise_seed) draw order, multiplex rotation and read
/// scaling as the production class.
class ReferenceRegisterFile {
 public:
  ReferenceRegisterFile(const pmu::EventDatabase& db, std::uint64_t noise_seed)
      : db_(&db), rng_(noise_seed) {}

  void program(const std::vector<std::uint32_t>& ids) {
    ids_ = ids;
    counts_.assign(ids.size(), 0.0);
    active_slices_.assign(ids.size(), 0);
    active_group_ = 0;
    total_slices_ = 0;
  }

  /// accumulate + end_slice, each a full walk that skips inactive slots.
  void tick(const pmu::ExecutionStats& stats) {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (!active(i)) continue;
      const pmu::EventResponse& r = db_->by_id(ids_[i]).response;
      const double expected = r.expected_count(stats);
      double noisy = expected;
      if (r.noise_rel > 0.0f && expected > 0.0) {
        noisy += rng_.normal(0.0, r.noise_rel * expected);
      }
      if (noisy < 0.0) noisy = 0.0;
      counts_[i] += noisy;
    }
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (!active(i)) continue;
      const pmu::EventResponse& r = db_->by_id(ids_[i]).response;
      double background = 0.0;
      if (r.host_background > 0.0f) {
        background += static_cast<double>(
            rng_.poisson(static_cast<double>(r.host_background)));
      }
      if (r.noise_abs > 0.0f) {
        background += std::abs(rng_.normal(0.0, r.noise_abs));
      }
      counts_[i] += background;
      ++active_slices_[i];
    }
    ++total_slices_;
    if (multiplexed()) active_group_ = (active_group_ + 1) % groups();
  }

  double read_raw(std::size_t slot) const { return counts_[slot]; }

  double read(std::size_t slot) const {
    if (!multiplexed()) return counts_[slot];
    if (active_slices_[slot] == 0) return 0.0;
    return counts_[slot] * static_cast<double>(total_slices_) /
           static_cast<double>(active_slices_[slot]);
  }

  std::vector<double> read_all() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ids_.size(); ++i) out.push_back(read(i));
    return out;
  }

 private:
  static constexpr std::size_t kCounters = pmu::EventDatabase::kNumCounters;

  bool multiplexed() const { return ids_.size() > kCounters; }
  std::size_t groups() const { return (ids_.size() + kCounters - 1) / kCounters; }
  bool active(std::size_t slot) const { return slot / kCounters == active_group_; }

  const pmu::EventDatabase* db_;
  util::Rng rng_;
  std::vector<std::uint32_t> ids_;
  std::vector<double> counts_;
  std::vector<std::uint64_t> active_slices_;
  std::size_t active_group_ = 0;
  std::uint64_t total_slices_ = 0;
};

// ---------------------------------------------------------------------------
// Feature flattening layout.

TEST(ResponseMatrix, FlattenMatchesExpectedCountTermOrder) {
  const pmu::ExecutionStats stats = busy_stats();
  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(stats, f.data());
  constexpr std::size_t k = isa::kNumInstructionClasses;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(f[i], stats.class_counts.at_index(i)) << i;
  }
  EXPECT_EQ(f[k + 0], stats.uops);
  EXPECT_EQ(f[k + 1], stats.l1_misses);
  EXPECT_EQ(f[k + 2], stats.llc_misses);
  EXPECT_EQ(f[k + 3], stats.l1_writes);
  EXPECT_EQ(f[k + 4], stats.branch_mispredicts);
  EXPECT_EQ(f[k + 5], stats.mem_reads);
  EXPECT_EQ(f[k + 6], stats.mem_writes);
  EXPECT_EQ(f[k + 7], stats.cycles);
  EXPECT_EQ(f[k + 8], stats.interrupts);
}

// Golden layout: hardcoded sentinel values pin the exact feature index of
// every ExecutionStats field. flatten_stats, ResponseMatrix::program and
// EventResponse::expected_count all assume this order; the equivalence
// tests only prove the first two agree with the third, so a silent
// reorder of all of them (enum edit) would pass there. This test fails
// instead.
TEST(ResponseMatrix, FlattenStatsGoldenLayout) {
  ASSERT_EQ(isa::kNumInstructionClasses, 25u);
  ASSERT_EQ(pmu::kStatsFeatureDim, 34u);
  pmu::ExecutionStats stats;
  for (std::size_t i = 0; i < stats.class_counts.size(); ++i) {
    stats.class_counts.at_index(i) = 100.0 + static_cast<double>(i);
  }
  stats.uops = 1000.0;
  stats.l1_misses = 1001.0;
  stats.llc_misses = 1002.0;
  stats.l1_writes = 1003.0;
  stats.branch_mispredicts = 1004.0;
  stats.mem_reads = 1005.0;
  stats.mem_writes = 1006.0;
  stats.cycles = 1007.0;
  stats.interrupts = 1008.0;

  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(stats, f.data());

  // Class counts in enum order (nop, int_alu, ..., serialize, system),
  // then the scalars in expected_count's term order.
  const std::array<double, 34> golden = {
      100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0,
      109.0, 110.0, 111.0, 112.0, 113.0, 114.0, 115.0, 116.0, 117.0,
      118.0, 119.0, 120.0, 121.0, 122.0, 123.0, 124.0,
      1000.0,  // uops
      1001.0,  // l1_misses
      1002.0,  // llc_misses
      1003.0,  // l1_writes
      1004.0,  // branch_mispredicts
      1005.0,  // mem_reads
      1006.0,  // mem_writes
      1007.0,  // cycles
      1008.0,  // interrupts
  };
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(f[i], golden[i]) << "feature index " << i;
  }
}

// Every group of both vendors' full databases, padded tail lanes included:
// the kernel's lanes must equal expected_count bit-for-bit. Intel's
// databases carry the negative-coefficient responses (L1_HIT = reads -
// misses) that exercise the clamp and the signed-zero argument.
TEST(ResponseMatrix, ExpectedIsBitIdenticalToEventResponse) {
  constexpr std::size_t kLanes = pmu::ResponseMatrix::kLanes;
  const pmu::ExecutionStats stats = busy_stats();
  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(stats, f.data());
  for (const isa::CpuModel model :
       {isa::CpuModel::kAmdEpyc7252, isa::CpuModel::kIntelXeonE5_1650}) {
    const pmu::EventDatabase& db = pmu::backend::backend_for(model).database();
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < db.size(); ++id) ids.push_back(id);
    pmu::ResponseMatrix matrix;
    matrix.program(db, ids);
    ASSERT_EQ(matrix.rows(), db.size());
    ASSERT_EQ(matrix.groups(), (db.size() + kLanes - 1) / kLanes);

    for (std::size_t g = 0; g < matrix.groups(); ++g) {
      double lanes[kLanes];
      pmu::expected_group(matrix.group_view(g), f.data(), lanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t row = g * kLanes + l;
        if (row >= matrix.rows()) {
          EXPECT_EQ(lanes[l], 0.0) << "pad lane of group " << g;
          continue;
        }
        const double clamped = lanes[l] < 0.0 ? 0.0 : lanes[l];
        EXPECT_EQ(clamped, db.by_id(static_cast<std::uint32_t>(row))
                               .response.expected_count(stats))
            << isa::to_token(model) << " event " << row;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel differential: the group kernel (the one portable 4-lane kernel
// every build runs) must reproduce the dense dot product the sparse layout
// replaced — all kStatsFeatureDim coefficients of the row, zeros included —
// bit-for-bit on every group of both full databases. This proves the
// column pruning and zero-lane padding are bit-exact no-ops.

/// Test oracle: the dense row-times-features dot product in flatten_stats
/// order, with expected_count's negative clamp.
double dense_expected(const pmu::EventResponse& r, const double* features) {
  constexpr std::size_t k = isa::kNumInstructionClasses;
  std::array<double, pmu::kStatsFeatureDim> coeff{};
  for (std::size_t i = 0; i < k; ++i) coeff[i] = r.class_weight.at_index(i);
  coeff[k + 0] = r.per_uop;
  coeff[k + 1] = r.per_l1_miss;
  coeff[k + 2] = r.per_llc_miss;
  coeff[k + 3] = r.per_l1_write;
  coeff[k + 4] = r.per_branch_miss;
  coeff[k + 5] = r.per_mem_read;
  coeff[k + 6] = r.per_mem_write;
  coeff[k + 7] = r.per_cycle;
  coeff[k + 8] = r.per_interrupt;
  double sum = 0.0;
  for (std::size_t i = 0; i < coeff.size(); ++i) sum += coeff[i] * features[i];
  return sum < 0.0 ? 0.0 : sum;
}

TEST(SimdKernels, EveryGroupMatchesDenseExpectedOnAllIsas) {
  constexpr std::size_t kLanes = pmu::ResponseMatrix::kLanes;
  std::array<double, pmu::kStatsFeatureDim> f{};
  pmu::flatten_stats(busy_stats(), f.data());
  for (const isa::CpuModel model :
       {isa::CpuModel::kAmdEpyc7252, isa::CpuModel::kIntelXeonE5_1650}) {
    const pmu::EventDatabase& db = pmu::backend::backend_for(model).database();
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < db.size(); ++id) ids.push_back(id);
    pmu::ResponseMatrix matrix;
    matrix.program(db, ids);

    for (std::size_t g = 0; g < matrix.groups(); ++g) {
      const pmu::ResponseMatrix::GroupView view = matrix.group_view(g);
      ASSERT_LE(view.cols, pmu::kStatsFeatureDim);
      double lanes[kLanes];
      pmu::expected_group(view, f.data(), lanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t row = g * kLanes + l;
        if (row >= matrix.rows()) {
          // Padded tail lanes carry all-zero coefficients.
          EXPECT_EQ(lanes[l], 0.0) << "pad lane of group " << g;
          continue;
        }
        const double clamped = lanes[l] < 0.0 ? 0.0 : lanes[l];
        EXPECT_EQ(clamped,
                  dense_expected(
                      db.by_id(static_cast<std::uint32_t>(row)).response,
                      f.data()))
            << isa::to_token(model) << " row " << row;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Register-file equivalence: identical RNG streams through the production
// class and the reference oracle must yield bit-identical counters,
// multiplexed or not.

/// Runs `ids` through CounterRegisterFile and the reference oracle on the
/// same noise seed and expects every raw slot count and scaled read to
/// agree bit-for-bit.
void expect_counters_match_reference(const pmu::EventDatabase& db,
                                     const std::vector<std::uint32_t>& ids,
                                     int ticks) {
  const pmu::ExecutionStats stats = busy_stats();
  CounterRegisterFile counters(db, 99);
  ReferenceRegisterFile reference(db, 99);
  counters.program(ids);
  reference.program(ids);
  for (int t = 0; t < ticks; ++t) {
    counters.tick(stats);
    reference.tick(stats);
  }
  std::vector<double> reads(ids.size());
  counters.read_all(reads);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(counters.read_raw_slot(i), reference.read_raw(i))
        << ids[i] << " over " << ids.size() << " events";
    EXPECT_EQ(reads[i], reference.read(i))
        << ids[i] << " over " << ids.size() << " events";
  }
  EXPECT_EQ(reads, reference.read_all()) << "over " << ids.size() << " events";
}

// Guest-visible events only: the attack-sized, single-group shape and an
// 11-event set that multiplexes across three groups.
TEST(EngineEquivalence, CountersBitIdenticalAcrossEngines) {
  Fixture fix;
  for (const std::size_t num_events : {4u, 11u}) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; ids.size() < num_events; ++id) {
      if (fix.db.by_id(id).response.guest_visible()) ids.push_back(id);
    }
    expect_counters_match_reference(fix.db, ids, 50);
  }
}

// Database-prefix id sets, host-only events and their slice noise
// included, up to the full 1903-event sweep. The sweep runs enough slices
// to visit every multiplex group more than twice.
TEST(EngineEquivalence, PinnedSimdEnginesBitIdenticalToReference) {
  Fixture fix;
  for (const std::size_t num_events : {4u, 11u, 1903u}) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < fix.db.size() && ids.size() < num_events;
         ++id) {
      ids.push_back(id);
    }
    ASSERT_EQ(ids.size(), num_events);
    expect_counters_match_reference(fix.db, ids, 1000);
  }
}

// ---------------------------------------------------------------------------
// Campaign level: FNV-1a digests of a full seed-7 fuzzing shard (every uid,
// event and median_delta bit) and of a profiler ranking (ids and MI bits).
// Both were captured on the commit whose reference, dense scalar and
// AVX-512 engines produced identical values, so they pin the retired
// engines' output through the whole campaign — gadget execution, RNG
// draws, confirmation reordering, everything. The ranking digest was
// re-pinned once, when the group sweep began simulating each ranking job
// once for every group. The fuzz digest was re-pinned once (was
// 0x37532b7cb5e14996), when confirmation began measuring each candidate
// once for its whole 4-event group.

constexpr std::uint64_t kSeed7FuzzDigest = 0xfec755db46fd92abULL;
constexpr std::uint64_t kSeed7RankingDigest = 0xf0aa7d39b57c5227ULL;

// A record no longer carries its event id; the digest hashes the event id
// of the record's report in its place (0 for a report's unset `best`), so
// the digest is the one captured when records carried the id.
std::uint64_t digest_gadget(std::uint64_t h, const fuzzer::ConfirmedGadget& g,
                            std::uint32_t event_id) {
  h = util::hash_combine(h, std::uint64_t{g.gadget.reset_uid});
  h = util::hash_combine(h, std::uint64_t{g.gadget.trigger_uid});
  h = util::hash_combine(h, std::uint64_t{event_id});
  return util::hash_combine(h, g.median_delta);
}

std::uint64_t digest_gadgets(std::uint64_t h,
                             const fuzzer::EventFuzzReport& report) {
  h = util::hash_combine(h, std::uint64_t{report.confirmed.size()});
  for (const auto& g : report.confirmed) {
    h = digest_gadget(h, g, report.event_id);
  }
  return h;
}

// The report's representatives, gathered through their indices.
std::uint64_t digest_representatives(std::uint64_t h,
                                     const fuzzer::EventFuzzReport& report) {
  h = util::hash_combine(h, std::uint64_t{report.representatives.size()});
  for (std::uint32_t i : report.representatives) {
    h = digest_gadget(h, report.confirmed.at(i), report.event_id);
  }
  return h;
}

std::uint64_t digest(const fuzzer::FuzzResult& r) {
  std::uint64_t h = util::kFnvOffset;
  h = util::hash_combine(h, std::uint64_t{r.cleaned_instructions});
  h = util::hash_combine(h, std::uint64_t{r.executed_gadgets});
  h = util::hash_combine(h, std::uint64_t{r.reports.size()});
  for (const auto& rep : r.reports) {
    h = util::hash_combine(h, std::uint64_t{rep.event_id});
    h = util::hash_combine(h, std::uint64_t{rep.candidates});
    h = digest_gadgets(h, rep);
    h = digest_representatives(h, rep);
    h = digest_gadget(h, rep.best, rep.confirmed.empty() ? 0 : rep.event_id);
  }
  return h;
}

std::uint64_t digest(const std::vector<profiler::EventRank>& ranking) {
  std::uint64_t h =
      util::hash_combine(util::kFnvOffset, std::uint64_t{ranking.size()});
  for (const auto& r : ranking) {
    h = util::hash_combine(h, std::uint64_t{r.event_id});
    h = util::hash_combine(h, r.mutual_information);
  }
  return h;
}

fuzzer::FuzzerConfig seed7_shard_config() {
  fuzzer::FuzzerConfig config;
  config.seed = 7;
  config.reset_sample = 20;
  config.trigger_sample = 20;
  config.repeats = 4;
  config.num_threads = 2;
  return config;
}

TEST(EngineEquivalence, Seed7FuzzingShardBitIdentical) {
  Fixture fix;
  fuzzer::EventFuzzer fuzzer(fix.db, fix.spec, seed7_shard_config());
  const fuzzer::FuzzResult result = fuzzer.run(fix.events());

  // A digest of an empty result would prove nothing.
  std::size_t confirmed = 0;
  for (const auto& report : result.reports) confirmed += report.confirmed.size();
  ASSERT_GT(confirmed, 0u);
  EXPECT_EQ(digest(result), kSeed7FuzzDigest);
}

// The same shard run back to back by fresh fuzzers in one process: every
// run must reproduce the digest, so no campaign leaves state (register
// files, RNG streams) that leaks into the next.
TEST(EngineEquivalence, Seed7ShardBitIdenticalAcrossSimdEngines) {
  Fixture fix;
  for (int run = 0; run < 2; ++run) {
    fuzzer::EventFuzzer fuzzer(fix.db, fix.spec, seed7_shard_config());
    const fuzzer::FuzzResult result = fuzzer.run(fix.events());
    ASSERT_GT(result.executed_gadgets, 0u) << "run " << run;
    EXPECT_EQ(digest(result), kSeed7FuzzDigest) << "run " << run;
  }
}

TEST(EngineEquivalence, ProfilerRankingIdenticalAcrossEngines) {
  Fixture fix;
  profiler::ProfilerConfig config;
  config.seed = 7;
  config.ranking_runs_per_secret = 3;
  config.num_threads = 2;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  for (std::uint32_t site = 0; site < 3; ++site) {
    secrets.push_back(std::make_unique<workload::WebsiteWorkload>(site, 40));
  }
  const std::vector<profiler::EventRank> ranking =
      profiler::ApplicationProfiler(fix.db, config).rank(secrets, fix.events());

  ASSERT_GT(ranking.size(), 0u);
  EXPECT_GT(ranking.front().mutual_information, 0.0);
  EXPECT_EQ(digest(ranking), kSeed7RankingDigest);
}

// ---------------------------------------------------------------------------
// Zero-allocation measurement loop: the runner holds no per-gadget state,
// so even its first execution of a gadget it has never seen allocates
// nothing.

TEST(HotPathAllocations, ExecuteOnceSteadyStateAllocatesNothing) {
#if AEGIS_ALLOC_HOOK
  Fixture fix;
  sim::GadgetRunner runner(fix.db, 21);
  const std::vector<std::uint32_t> all_events = fix.events();
  runner.program({all_events.begin(), all_events.begin() + 4});

  // Any two legal variants make a (reset, trigger) gadget; one with a
  // memory operand exercises the cache-access stats path too.
  std::uint32_t plain = 0, memory = 0;
  bool have_plain = false, have_memory = false;
  for (const auto& v : fix.spec.variants()) {
    if (!v.legal()) continue;
    if (!have_plain && !v.has_memory_operand) {
      plain = v.uid;
      have_plain = true;
    }
    if (!have_memory && v.has_memory_operand) {
      memory = v.uid;
      have_memory = true;
    }
    if (have_plain && have_memory) break;
  }
  ASSERT_TRUE(have_plain);
  ASSERT_TRUE(have_memory);
  const std::array<sim::CompiledBlock, 2> gadget = {
      sim::compile_gadget(fix.spec, plain, 16.0),
      sim::compile_gadget(fix.spec, memory, 16.0)};

  // One call on the memory block alone first-touches the scratch and data
  // regions (a one-time MicroArchState append, not per-gadget state). The
  // counted window then opens with the first execution of the gadget.
  (void)runner.execute_once(std::span(gadget).last(1));
  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (int i = 0; i < 200; ++i) {
    const std::span<const double> delta = runner.execute_once(gadget);
    sink += delta[0];
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "execute_once must not touch the heap (sink=" << sink << ")";
#else
  GTEST_SKIP() << "allocation hook disabled under sanitizers";
#endif
}

// ---------------------------------------------------------------------------
// The hot path records nothing into the process-wide flight recorder, so a
// fuzzing campaign cannot evict the stage spans from its rings.

TEST(GadgetRunner, ExecuteOnceLeavesTheGlobalRecorderAlone) {
  Fixture fix;
  const telemetry::FlightRecorder& recorder =
      telemetry::Registry::global().recorder();
  const auto recorded = [&recorder] {
    return recorder.drain().size() + recorder.dropped();
  };
  sim::GadgetRunner runner(fix.db, 21);
  const std::vector<std::uint32_t> all_events = fix.events();
  runner.program({all_events.begin(), all_events.begin() + 4});
  std::uint32_t plain = 0;
  for (const auto& v : fix.spec.variants()) {
    if (v.legal() && !v.has_memory_operand) {
      plain = v.uid;
      break;
    }
  }
  const sim::CompiledBlock block = sim::compile_gadget(fix.spec, plain, 16.0);
  const std::array<sim::CompiledBlock, 2> gadget = {block, block};

  const std::size_t before = recorded();
  for (int i = 0; i < 10000; ++i) (void)runner.execute_once(gadget);
  EXPECT_EQ(recorded(), before);
  for (const std::string& stream : recorder.streams()) {
    EXPECT_NE(stream.rfind("gadget.", 0), 0u) << stream;
  }
}

}  // namespace
}  // namespace aegis
