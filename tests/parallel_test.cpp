// Differential proof of the parallel campaign engine: serial (1 thread) and
// parallel (2/4/8 thread) runs must produce element-wise identical results,
// because every shard derives its RNG stream and simulator state from the
// shard index alone (util::split_mix64(seed, shard)) — never from thread
// identity or scheduling order. Plus golden-value regression tests pinning
// key fuzzer/profiler outputs at fixed seeds so refactors can't silently
// drift, and work-stealing thread-pool unit coverage.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/config.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/parallel_campaign.hpp"
#include "profiler/profiler.hpp"
#include "util/thread_pool.hpp"
#include "workload/website.hpp"

namespace aegis {
namespace {

using fuzzer::EventFuzzer;
using fuzzer::FuzzerConfig;
using fuzzer::FuzzResult;

// Golden values pinned at seed 7 with Fixture::small_config on the AMD
// substrate (events() order: the 4 kAmdAttackEvents, then
// RETIRED_BRANCH_INSTRUCTIONS, RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR).
constexpr std::size_t kGoldenCleaned = 3407;  // the paper's AMD legal count
// 2 event groups x 24 resets x 24 triggers (class-stratified sampling
// rounds the requested 20 up to one pick per instruction class).
constexpr std::size_t kGoldenExecuted = 1152;
constexpr std::size_t kGoldenCandidates[6] = {576, 324, 232, 29, 92, 218};
// Re-pinned (was 338, 133, 77, 6, 48, 120) when confirmation began
// measuring each candidate once for its whole 4-event group.
constexpr std::size_t kGoldenConfirmed[6] = {335, 133, 77, 6, 48, 119};
// Re-pinned (was 1770, 1764, 1765) when the group sweep began simulating
// each ranking job once for every group.
constexpr std::uint32_t kGoldenTopRanked[3] = {1767, 1764, 1770};

// ---------------------------------------------------------------------------
// FuzzResult equality (element-wise; timing excluded — wall clock is the one
// field allowed to differ between thread counts).

void expect_gadgets_equal(const std::vector<fuzzer::ConfirmedGadget>& a,
                          const std::vector<fuzzer::ConfirmedGadget>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].gadget.reset_uid, b[i].gadget.reset_uid) << what << " " << i;
    EXPECT_EQ(a[i].gadget.trigger_uid, b[i].gadget.trigger_uid)
        << what << " " << i;
    // Bit-identical, not approximately equal: both runs must execute the
    // exact same double-arithmetic sequence.
    EXPECT_EQ(a[i].median_delta, b[i].median_delta) << what << " " << i;
  }
}

void expect_results_equal(const FuzzResult& a, const FuzzResult& b) {
  EXPECT_EQ(a.total_gadget_space, b.total_gadget_space);
  EXPECT_EQ(a.executed_gadgets, b.executed_gadgets);
  EXPECT_EQ(a.cleaned_instructions, b.cleaned_instructions);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t e = 0; e < a.reports.size(); ++e) {
    const auto& ra = a.reports[e];
    const auto& rb = b.reports[e];
    EXPECT_EQ(ra.event_id, rb.event_id);
    EXPECT_EQ(ra.candidates, rb.candidates);
    expect_gadgets_equal(ra.confirmed, rb.confirmed, "confirmed");
    EXPECT_EQ(ra.representatives, rb.representatives);
    EXPECT_EQ(ra.best.gadget.reset_uid, rb.best.gadget.reset_uid);
    EXPECT_EQ(ra.best.gadget.trigger_uid, rb.best.gadget.trigger_uid);
    EXPECT_EQ(ra.best.median_delta, rb.best.median_delta);
  }
}

struct Fixture {
  pmu::EventDatabase db =
      pmu::EventDatabase::generate(isa::CpuModel::kAmdEpyc7252);
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);

  /// Six events -> two counter groups, so the group dimension of the shard
  /// grid is exercised too.
  std::vector<std::uint32_t> events() const {
    std::vector<std::uint32_t> ids;
    for (auto name : pmu::kAmdAttackEvents) ids.push_back(*db.find(name));
    ids.push_back(*db.find("RETIRED_BRANCH_INSTRUCTIONS"));
    ids.push_back(*db.find("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR"));
    return ids;
  }

  FuzzerConfig small_config(std::size_t num_threads) const {
    FuzzerConfig config;
    config.seed = 7;
    config.reset_sample = 20;
    config.trigger_sample = 20;
    config.repeats = 4;
    config.num_threads = num_threads;
    return config;
  }
};

// ---------------------------------------------------------------------------
// Differential suite: serial vs parallel.

TEST(ParallelDifferential, FuzzResultIdenticalAcrossThreadCounts) {
  Fixture f;
  EventFuzzer serial(f.db, f.spec, f.small_config(1));
  const FuzzResult baseline = serial.run(f.events());
  // The baseline must be non-trivial, otherwise equality proves nothing.
  std::size_t total_confirmed = 0;
  for (const auto& r : baseline.reports) total_confirmed += r.confirmed.size();
  ASSERT_GT(total_confirmed, 0u);

  for (std::size_t threads : {2u, 4u, 8u}) {
    EventFuzzer parallel(f.db, f.spec, f.small_config(threads));
    const FuzzResult result = parallel.run(f.events());
    SCOPED_TRACE(testing::Message() << "num_threads=" << threads);
    expect_results_equal(baseline, result);
  }
}

TEST(ParallelDifferential, CleanupIdenticalAcrossThreadCounts) {
  Fixture f;
  EventFuzzer serial(f.db, f.spec, f.small_config(1));
  const std::vector<std::uint32_t> baseline = serial.cleanup();
  EXPECT_EQ(baseline.size(), f.spec.legal_count());
  for (std::size_t threads : {3u, 8u}) {
    EventFuzzer parallel(f.db, f.spec, f.small_config(threads));
    EXPECT_EQ(parallel.cleanup(), baseline) << "num_threads=" << threads;
  }
}

TEST(ParallelDifferential, ProfilerWarmupIdenticalAcrossThreadCounts) {
  Fixture f;
  profiler::ProfilerConfig config;
  config.seed = 7;
  config.warmup_slices = 30;
  config.warmup_repeats = 2;
  const workload::WebsiteWorkload app(0, config.warmup_slices);

  config.num_threads = 1;
  const profiler::WarmupReport baseline =
      profiler::ApplicationProfiler(f.db, config).warmup(app);
  ASSERT_GT(baseline.surviving.size(), 0u);

  for (std::size_t threads : {2u, 4u, 8u}) {
    config.num_threads = threads;
    const profiler::WarmupReport report =
        profiler::ApplicationProfiler(f.db, config).warmup(app);
    EXPECT_EQ(report.surviving, baseline.surviving)
        << "num_threads=" << threads;
    EXPECT_EQ(report.after_by_type, baseline.after_by_type);
    EXPECT_EQ(report.total_events, baseline.total_events);
  }
}

TEST(ParallelDifferential, ProfilerRankIdenticalAcrossThreadCounts) {
  Fixture f;
  profiler::ProfilerConfig config;
  config.seed = 7;
  config.ranking_runs_per_secret = 3;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  for (std::uint32_t site = 0; site < 3; ++site) {
    secrets.push_back(std::make_unique<workload::WebsiteWorkload>(site, 40));
  }
  // Six events -> two ranking groups.
  const std::vector<std::uint32_t> event_ids = Fixture{}.events();

  config.num_threads = 1;
  const std::vector<profiler::EventRank> baseline =
      profiler::ApplicationProfiler(f.db, config).rank(secrets, event_ids);
  ASSERT_EQ(baseline.size(), event_ids.size());

  for (std::size_t threads : {2u, 8u}) {
    config.num_threads = threads;
    const std::vector<profiler::EventRank> ranks =
        profiler::ApplicationProfiler(f.db, config).rank(secrets, event_ids);
    ASSERT_EQ(ranks.size(), baseline.size()) << "num_threads=" << threads;
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(ranks[i].event_id, baseline[i].event_id) << i;
      EXPECT_EQ(ranks[i].mutual_information, baseline[i].mutual_information)
          << i;
    }
  }
}

TEST(ParallelDifferential, OfflineConfigThreadKnobReachesEveryStage) {
  core::OfflineConfig config = core::make_quick_offline_config(7, 3);
  EXPECT_EQ(config.profiler.num_threads, 3u);
  EXPECT_EQ(config.fuzzer.num_threads, 3u);
  config.set_num_threads(0);
  EXPECT_EQ(config.fuzzer.num_threads, 0u);
}

// ---------------------------------------------------------------------------
// Golden regression: key outputs pinned at seed 7 (see EXPERIMENTS.md).
// These values were produced by the 1-thread run and — by the differential
// suite above — hold for every thread count. If an intentional change to
// the fuzzing pipeline shifts them, re-pin and note it in EXPERIMENTS.md.

TEST(GoldenFuzzer, Seed7PinnedCounts) {
  Fixture f;
  EventFuzzer fuzzer(f.db, f.spec, f.small_config(0));
  const FuzzResult result = fuzzer.run(f.events());
  EXPECT_EQ(result.cleaned_instructions, kGoldenCleaned);
  EXPECT_EQ(result.total_gadget_space, kGoldenCleaned * kGoldenCleaned);
  EXPECT_EQ(result.executed_gadgets, kGoldenExecuted);
  ASSERT_EQ(result.reports.size(), 6u);
  for (std::size_t e = 0; e < result.reports.size(); ++e) {
    EXPECT_EQ(result.reports[e].candidates, kGoldenCandidates[e]) << e;
    EXPECT_EQ(result.reports[e].confirmed.size(), kGoldenConfirmed[e]) << e;
  }
}

TEST(GoldenProfiler, Seed7PinnedTopRankedEvents) {
  Fixture f;
  profiler::ProfilerConfig config;
  config.seed = 7;
  config.ranking_runs_per_secret = 3;
  config.num_threads = 0;
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  for (std::uint32_t site = 0; site < 3; ++site) {
    secrets.push_back(std::make_unique<workload::WebsiteWorkload>(site, 40));
  }
  const std::vector<profiler::EventRank> ranks =
      profiler::ApplicationProfiler(f.db, config).rank(secrets, f.events());
  ASSERT_EQ(ranks.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ranks[i].event_id, kGoldenTopRanked[i]) << i;
  }
  EXPECT_GT(ranks.front().mutual_information, 0.0);
}

// ---------------------------------------------------------------------------
// Work-stealing thread pool.

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesFewerIndicesThanWorkers) {
  util::ThreadPool pool(8);
  std::atomic<int> sum{0};
  pool.parallel_for(3, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i) + 1);
  });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ReusableAcrossJobs) {
  util::ThreadPool pool(3);
  for (int job = 0; job < 5; ++job) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 64u);
  }
}

TEST(ThreadPool, SurvivesRapidRedispatchWhenOversubscribed) {
  // Regression: with more workers than cores, a worker can sleep through an
  // entire job and wake only after the next parallel_for has re-seeded the
  // shards. It must not claim the new indices under the finished epoch's
  // (already cleared) body pointer. Tight back-to-back dispatch on an
  // oversubscribed pool reproduced the crash reliably before workers could
  // join only the running job (now: by taking one of its tickets).
  util::ThreadPool pool(8);
  for (int job = 0; job < 20000; ++job) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64u) << "job " << job;
  }
}

TEST(ThreadPool, SurvivesRapidRedispatchOfPartialWakeJobs) {
  // A 2-index job wakes one of seven workers; the others stay parked, and
  // any of them may be the next job's helper. Each index must still run
  // exactly once per job.
  util::ThreadPool pool(8);
  std::array<std::atomic<int>, 2> hits{};
  for (int job = 0; job < 20000; ++job) {
    for (auto& h : hits) h.store(0);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    ASSERT_EQ(hits[0].load(), 1) << "job " << job;
    ASSERT_EQ(hits[1].load(), 1) << "job " << job;
  }
}

TEST(ThreadPool, OneIndexJobRunsOnTheCallingThread) {
  util::ThreadPool pool(4);
  std::thread::id ran_on;
  pool.parallel_for(1,
                    [&](std::size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, OneExecutorPoolRunsEveryIndexOnTheCallingThread) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(1000, 0);
  std::size_t elsewhere = 0;
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    if (std::this_thread::get_id() != caller) ++elsewhere;
    ++hits[i];
  });
  EXPECT_EQ(elsewhere, 0u);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, CallerExceptionIsRethrownAfterEveryOtherIndex) {
  // The caller's first index throws. Worker-run indices wait until it has,
  // so none of them can finish first; the caller still claims and steals
  // the rest, and the throw surfaces only once all 64 have run.
  util::ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_threw{false};
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() == caller) {
        if (!caller_threw.exchange(true)) {
          executed.fetch_add(1);
          throw std::runtime_error("caller");
        }
      } else {
        while (!caller_threw.load()) std::this_thread::yield();
      }
      executed.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "caller");
  }
  EXPECT_TRUE(caller_threw.load());
  EXPECT_EQ(executed.load(), 64u);
}

TEST(ThreadPool, StealsFromUnevenShards) {
  // Front-loaded cost: worker 0's initial slice holds all the slow tasks;
  // stealing must still complete everything (and the completed-count
  // invariant catches double-execution).
  util::ThreadPool pool(4);
  std::atomic<std::size_t> done{0};
  pool.parallel_for(32, [&](std::size_t i) {
    if (i < 8) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 32u);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  util::ThreadPool pool(4);
  std::atomic<std::size_t> executed{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 13) throw std::runtime_error("boom");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // All other indices still ran: a failed shard must not wedge the job.
  EXPECT_EQ(executed.load(), 100u);
}

TEST(ThreadPool, ResolveMapsZeroToHardwareConcurrency) {
  EXPECT_EQ(util::ThreadPool::resolve(5), 5u);
  EXPECT_GE(util::ThreadPool::resolve(0), 1u);
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), util::ThreadPool::resolve(0));
}

// Speed-ups are bench numbers (bench_table3_fuzzing with
// AEGIS_THREAD_SWEEP=1), not test verdicts: ctest makes no wall-clock
// assertions.

}  // namespace
}  // namespace aegis
