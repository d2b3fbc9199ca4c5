#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <unordered_set>

#include "counting_allocator.hpp"
#include "fuzzer/confirmation.hpp"
#include "fuzzer/filtering.hpp"
#include "fuzzer/fuzzer.hpp"
#include "fuzzer/parallel_campaign.hpp"
#include "fuzzer/set_cover.hpp"
#include "sim/instruction_block.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace aegis::fuzzer {
namespace {

using isa::CpuModel;
using isa::InstructionClass;

struct Fixture {
  pmu::EventDatabase db = pmu::EventDatabase::generate(CpuModel::kAmdEpyc7252);
  isa::IsaSpecification spec =
      isa::IsaSpecification::generate(CpuModel::kAmdEpyc7252);

  std::uint32_t find_variant(InstructionClass iclass, bool mem = false,
                             bool store = false) const {
    for (const auto& v : spec.variants()) {
      if (v.legal() && v.iclass == iclass && v.has_memory_operand == mem &&
          v.is_store == store) {
        return v.uid;
      }
    }
    throw std::runtime_error("variant not found");
  }
};

TEST(Cleanup, KeepsExactlyTheLegalVariants) {
  Fixture f;
  EventFuzzer fuzzer(f.db, f.spec, FuzzerConfig{});
  const auto& cleaned = fuzzer.cleanup();
  EXPECT_EQ(cleaned.size(), f.spec.legal_count());
  for (std::uint32_t uid : cleaned) {
    EXPECT_TRUE(f.spec.by_uid(uid).legal());
  }
}

TEST(Cleanup, IsIdempotent) {
  Fixture f;
  EventFuzzer fuzzer(f.db, f.spec, FuzzerConfig{});
  const auto first = fuzzer.cleanup();
  const auto second = fuzzer.cleanup();
  EXPECT_EQ(first, second);
}

TEST(Confirmation, ConfirmsFlushLoadGadgetForCacheEvent) {
  // The paper's canonical example: clflush reset + load trigger disturbs
  // cache-refill events.
  Fixture f;
  sim::GadgetRunner runner(f.db, 1);
  runner.program({*f.db.find("DATA_CACHE_REFILLS_FROM_SYSTEM")});
  const Gadget gadget{f.find_variant(InstructionClass::kCacheFlush, true),
                      f.find_variant(InstructionClass::kLoad, true)};
  const ConfirmationOutcome outcome =
      confirm_gadget(runner, f.spec, gadget, ConfirmationParams{});
  EXPECT_TRUE(outcome.confirmed_for(0));
  EXPECT_GT(outcome.trigger_delta(0), 0.3);
}

TEST(Confirmation, RejectsGadgetWhoseResetDoesNotReset) {
  // NOP reset + load trigger: without a flush, the loads hit cache after
  // the first execution, so the cumulative misses fall far short of
  // R * median -> the lambda1 linearity constraint rejects it (C6).
  Fixture f;
  sim::GadgetRunner runner(f.db, 2);
  runner.program({*f.db.find("DATA_CACHE_REFILLS_FROM_SYSTEM")});
  const Gadget gadget{f.find_variant(InstructionClass::kNop),
                      f.find_variant(InstructionClass::kLoad, true)};
  const ConfirmationOutcome outcome =
      confirm_gadget(runner, f.spec, gadget, ConfirmationParams{});
  EXPECT_FALSE(outcome.confirmed_for(0));
}

TEST(Confirmation, RejectsResetSideEffectGadget) {
  // Store reset + NOP trigger on a store-counting event: the whole change
  // comes from the reset (C5); the hot path is not lambda2 times the cold.
  Fixture f;
  sim::GadgetRunner runner(f.db, 3);
  runner.program({*f.db.find("HW_CACHE_L1D:WRITE:ACCESS")});
  const Gadget gadget{f.find_variant(InstructionClass::kStore, true, true),
                      f.find_variant(InstructionClass::kNop)};
  const ConfirmationOutcome outcome =
      confirm_gadget(runner, f.spec, gadget, ConfirmationParams{});
  EXPECT_FALSE(outcome.confirmed_for(0));
}

TEST(Confirmation, ConfirmsUopGadgetWithCheapReset) {
  Fixture f;
  sim::GadgetRunner runner(f.db, 4);
  runner.program({*f.db.find("RETIRED_UOPS")});
  const Gadget gadget{f.find_variant(InstructionClass::kNop),
                      f.find_variant(InstructionClass::kIntDiv)};
  const ConfirmationOutcome outcome =
      confirm_gadget(runner, f.spec, gadget, ConfirmationParams{});
  EXPECT_TRUE(outcome.confirmed_for(0));
}

TEST(Confirmation, MeasurePathSeparatesColdAndHot) {
  Fixture f;
  sim::GadgetRunner runner(f.db, 5);
  runner.program({*f.db.find("RETIRED_UOPS")});
  const Gadget gadget{f.find_variant(InstructionClass::kNop),
                      f.find_variant(InstructionClass::kIntMul)};
  const ConfirmationParams params;
  const PathMeasurement cold =
      measure_path(runner, f.spec, gadget, false, params);
  const PathMeasurement hot =
      measure_path(runner, f.spec, gadget, true, params);
  EXPECT_GT(hot.median[0], cold.median[0] + 1.0);
  EXPECT_NEAR(hot.cumulative[0], hot.median[0] * params.repeats,
              hot.cumulative[0] * 0.3 + 1.0);
}

TEST(Confirmation, JudgesEachSlotOfAGroupRunnerOnItsOwn) {
  // One runner reads two events from the same executions. Store reset +
  // integer-divide trigger genuinely drives the uop count (slot 0), while
  // the store-counting event (slot 1) moves only with the reset: a C5 side
  // effect that must be rejected for slot 1 alone.
  Fixture f;
  sim::GadgetRunner runner(f.db, 6);
  runner.program({*f.db.find("RETIRED_UOPS"),
                  *f.db.find("HW_CACHE_L1D:WRITE:ACCESS")});
  const Gadget gadget{f.find_variant(InstructionClass::kStore, true, true),
                      f.find_variant(InstructionClass::kIntDiv)};
  const ConfirmationOutcome outcome =
      confirm_gadget(runner, f.spec, gadget, ConfirmationParams{});
  EXPECT_TRUE(outcome.confirmed_for(0));
  EXPECT_FALSE(outcome.confirmed_for(1));
  EXPECT_GT(outcome.cold.cumulative[1], 0.0);  // the reset does count
  // Unprogrammed slots are neither measured nor confirmed.
  EXPECT_EQ(outcome.confirmed & ~SlotMask{0b11}, 0);
  EXPECT_EQ(outcome.hot.cumulative[2], 0.0);
}

TEST(Confirmation, MeasuresEachCandidateOnceForItsWholeGroup) {
  // Every gadget check is one cold and one hot path, whatever the number
  // of slots it was flagged for: the first pass checks each of a group's
  // candidates once and the reordering pass re-checks each gadget that
  // confirmed for at least one slot once.
  Fixture f;
  FuzzerConfig config;
  config.repeats = 4;
  config.num_threads = 2;
  util::ThreadPool pool(config.num_threads);
  const ParallelCampaign campaign(f.db, f.spec, config, pool);
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*f.db.find(name));
  events.push_back(*f.db.find("RETIRED_BRANCH_INSTRUCTIONS"));
  events.push_back(*f.db.find("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR"));
  const std::vector<std::uint32_t> cleaned = campaign.cleanup();
  std::vector<std::uint32_t> sample;
  for (std::size_t i = 0; i < cleaned.size(); i += cleaned.size() / 16) {
    sample.push_back(cleaned[i]);
  }
  const GenerationOutput generation = campaign.generate(events, sample, sample);
  ASSERT_EQ(generation.groups.size(), 2u);
  EXPECT_THROW((void)campaign.confirm(events, {generation.groups[0]}),
               std::invalid_argument);

  const std::uint64_t before = path_measurements();
  const std::vector<std::vector<ConfirmedGadget>> stable =
      campaign.confirm(events, generation.groups);
  const std::uint64_t measured = path_measurements() - before;

  // Replay the first pass: same runner seed, same group program, same
  // candidate order.
  ConfirmationParams params;
  params.repeats = config.repeats;
  std::size_t candidates = 0;
  std::size_t rechecks = 0;
  std::size_t multi_slot = 0;
  for (std::size_t g = 0; g < generation.groups.size(); ++g) {
    sim::GadgetRunner runner(f.db,
                             util::split_mix64(config.seed ^ kConfirmSalt, g));
    const std::size_t g1 = std::min(events.size(), (g + 1) * kSlots);
    runner.program({events.begin() + static_cast<std::ptrdiff_t>(g * kSlots),
                    events.begin() + static_cast<std::ptrdiff_t>(g1)});
    for (const GroupCandidate& candidate : generation.groups[g]) {
      ++candidates;
      if (std::popcount(candidate.slots) > 1) ++multi_slot;
      const SlotMask slots =
          confirm_gadget(runner, f.spec, candidate.gadget, params).confirmed &
          candidate.slots;
      if (slots != 0) ++rechecks;
    }
  }
  ASSERT_GT(multi_slot, 0u);  // else one run per (gadget, event) would pass
  ASSERT_GT(rechecks, 0u);
  EXPECT_EQ(measured, 2 * (candidates + rechecks));
  std::size_t kept = 0;
  for (const auto& per_event : stable) kept += per_event.size();
  EXPECT_GT(kept, 0u);
}

TEST(Filtering, ClustersByExtensionAndCategory) {
  Fixture f;
  // Two gadgets with identical attribute tuples and one different.
  std::vector<std::uint32_t> alus, simds;
  for (const auto& v : f.spec.variants()) {
    if (!v.legal()) continue;
    if (v.iclass == InstructionClass::kIntAlu && !v.has_memory_operand &&
        alus.size() < 2) {
      alus.push_back(v.uid);
    }
    if (v.iclass == InstructionClass::kSimdFp && v.extension == isa::Extension::kSse &&
        simds.size() < 1) {
      simds.push_back(v.uid);
    }
  }
  ASSERT_EQ(alus.size(), 2u);
  ASSERT_EQ(simds.size(), 1u);
  const std::uint32_t nop = f.find_variant(InstructionClass::kNop);
  std::vector<ConfirmedGadget> confirmed = {
      {{nop, alus[0]}, 10.0},
      {{nop, alus[1]}, 20.0},  // same cluster, higher delta
      {{nop, simds[0]}, 5.0},
  };
  const FilterOutcome outcome = filter_gadgets(confirmed, f.spec);
  EXPECT_EQ(outcome.clusters, 2u);
  EXPECT_EQ(outcome.representatives.size(), 2u);
  EXPECT_DOUBLE_EQ(outcome.best.median_delta, 20.0);
  // The ALU cluster representative is the max-delta member.
  bool found = false;
  for (std::uint32_t i : outcome.representatives) {
    if (confirmed.at(i).gadget.trigger_uid == alus[1]) found = true;
    EXPECT_NE(confirmed.at(i).gadget.trigger_uid, alus[0]);
  }
  EXPECT_TRUE(found);
}

TEST(Filtering, EveryRepresentativeIndexesItsClustersMaxDeltaRecord) {
  // Random pairs over legal variants of several extensions and categories,
  // deltas from a few levels so that clusters hold ties. Each cluster has
  // one representative, in cluster-key order, and it is the index of the
  // cluster's first record with the cluster's largest delta.
  Fixture f;
  std::vector<std::uint32_t> uids;
  for (const auto& v : f.spec.variants()) {
    if (v.legal() && v.uid % 7 == 0) uids.push_back(v.uid);
  }
  ASSERT_GT(uids.size(), 8u);
  util::Rng rng(0xF117E4ULL);
  std::vector<ConfirmedGadget> confirmed(400);
  for (ConfirmedGadget& g : confirmed) {
    g.gadget = {rng.pick(uids), rng.pick(uids)};
    g.median_delta = 0.5 * static_cast<double>(rng.uniform_int(1, 6));
  }
  const auto key = [&](const ConfirmedGadget& g) {
    const isa::InstructionVariant& reset = f.spec.by_uid(g.gadget.reset_uid);
    const isa::InstructionVariant& trigger = f.spec.by_uid(g.gadget.trigger_uid);
    return std::tuple(reset.extension, reset.category, trigger.extension,
                      trigger.category);
  };

  const FilterOutcome outcome = filter_gadgets(confirmed, f.spec);
  ASSERT_GT(outcome.clusters, 4u);
  ASSERT_EQ(outcome.representatives.size(), outcome.clusters);
  for (std::size_t c = 0; c < outcome.representatives.size(); ++c) {
    const std::uint32_t rep = outcome.representatives[c];
    ASSERT_LT(rep, confirmed.size());
    if (c > 0) {
      EXPECT_LT(key(confirmed[outcome.representatives[c - 1]]),
                key(confirmed[rep]));
    }
    for (std::uint32_t i = 0; i < confirmed.size(); ++i) {
      if (key(confirmed[i]) != key(confirmed[rep])) continue;
      EXPECT_LE(confirmed[i].median_delta, confirmed[rep].median_delta) << i;
      if (i < rep) {
        EXPECT_LT(confirmed[i].median_delta, confirmed[rep].median_delta) << i;
      }
    }
  }
}

TEST(Filtering, EmptyInputYieldsEmptyOutcome) {
  Fixture f;
  const FilterOutcome outcome = filter_gadgets({}, f.spec);
  EXPECT_EQ(outcome.clusters, 0u);
  EXPECT_TRUE(outcome.representatives.empty());
}

TEST(Fuzzer, RunFindsGadgetsForAttackEvents) {
  Fixture f;
  FuzzerConfig config;
  config.reset_sample = 40;
  config.trigger_sample = 40;
  config.repeats = 6;
  EventFuzzer fuzzer(f.db, f.spec, config);
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*f.db.find(name));
  const FuzzResult result = fuzzer.run(events);
  ASSERT_EQ(result.reports.size(), 4u);
  for (const auto& report : result.reports) {
    EXPECT_FALSE(report.confirmed.empty())
        << f.db.by_id(report.event_id).name;
    EXPECT_LE(report.representatives.size(), report.confirmed.size());
    EXPECT_GT(report.best.median_delta, 0.0);
  }
  EXPECT_EQ(result.cleaned_instructions, f.spec.legal_count());
  EXPECT_EQ(result.total_gadget_space,
            f.spec.legal_count() * f.spec.legal_count());
  EXPECT_GT(result.executed_gadgets, 0u);
  EXPECT_GT(result.timing.generation_execution_seconds, 0.0);
}

TEST(Fuzzer, ConfirmedGadgetsAreSubsetOfCandidates) {
  Fixture f;
  FuzzerConfig config;
  config.reset_sample = 24;
  config.trigger_sample = 24;
  config.repeats = 5;
  EventFuzzer fuzzer(f.db, f.spec, config);
  const FuzzResult result = fuzzer.run({*f.db.find("RETIRED_UOPS")});
  ASSERT_EQ(result.reports.size(), 1u);
  EXPECT_LE(result.reports[0].confirmed.size(), result.reports[0].candidates);
}

TEST(ConfirmationAblation, StrictKeepsASubsetOfLaxAndRejectsConfounders) {
  // The tier-1 form of bench_abl_fuzzer_confirmation at a reduced grid:
  // switching off the lambda constraints and the reordering check may only
  // add gadgets, and on cache-, branch- and store-coupled events it must
  // add some (the C5/C6 confounders only confirmation rejects).
  Fixture f;
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*f.db.find(name));
  events.push_back(*f.db.find("HW_CACHE_L1D:READ:MISS"));
  events.push_back(*f.db.find("HW_CACHE_LL:READ:MISS"));
  events.push_back(*f.db.find("RETIRED_BRANCH_MISPREDICTED"));
  events.push_back(*f.db.find("HW_CACHE_L1D:WRITE:ACCESS"));

  FuzzerConfig strict;
  strict.reset_sample = 20;
  strict.trigger_sample = 20;
  strict.repeats = 10;
  FuzzerConfig lax = strict;
  lax.lambda1 = 1e9;
  lax.lambda2 = 0.0;
  lax.reorder_tolerance = 1e-9;
  const FuzzResult with = EventFuzzer(f.db, f.spec, strict).run(events);
  const FuzzResult without = EventFuzzer(f.db, f.spec, lax).run(events);

  ASSERT_EQ(with.reports.size(), events.size());
  ASSERT_EQ(without.reports.size(), events.size());
  std::size_t rejected = 0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    std::unordered_set<Gadget, GadgetHash> lax_set;
    for (const auto& g : without.reports[e].confirmed) lax_set.insert(g.gadget);
    for (const auto& g : with.reports[e].confirmed) {
      EXPECT_TRUE(lax_set.contains(g.gadget))
          << f.db.by_id(events[e]).name << " (" << g.gadget.reset_uid << ", "
          << g.gadget.trigger_uid << ")";
    }
    rejected += lax_set.size() - std::min(lax_set.size(),
                                          with.reports[e].confirmed.size());
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SetCover, CoversEveryEventWithGadgets) {
  Fixture f;
  FuzzerConfig config;
  config.reset_sample = 32;
  config.trigger_sample = 32;
  config.repeats = 5;
  EventFuzzer fuzzer(f.db, f.spec, config);
  std::vector<std::uint32_t> events;
  for (auto name : pmu::kAmdAttackEvents) events.push_back(*f.db.find(name));
  events.push_back(*f.db.find("RETIRED_BRANCH_INSTRUCTIONS"));
  events.push_back(*f.db.find("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR"));
  const FuzzResult result = fuzzer.run(events);
  const GadgetCover cover = minimal_gadget_cover(result);
  EXPECT_TRUE(cover.uncovered_events.empty());
  EXPECT_EQ(cover.covered_events.size(), events.size());
  // The cover exploits intersections: far fewer gadgets than events.
  EXPECT_LE(cover.gadgets.size(), events.size());
  EXPECT_GE(cover.gadgets.size(), 1u);
  // Every covered event has a positive segment effect.
  for (const auto& [event, delta] : cover.segment_effect) {
    EXPECT_GT(delta, 0.0) << f.db.by_id(event).name;
  }
}

TEST(SetCover, ReportsUncoverableEvents) {
  FuzzResult result;
  EventFuzzReport empty_report;
  empty_report.event_id = 42;
  result.reports.push_back(empty_report);  // no confirmed gadgets
  const GadgetCover cover = minimal_gadget_cover(result);
  ASSERT_EQ(cover.uncovered_events.size(), 1u);
  EXPECT_EQ(cover.uncovered_events[0], 42u);
  EXPECT_TRUE(cover.gadgets.empty());
}

TEST(SetCover, GreedyPrefersSharedGadgets) {
  // `shared` covers events 100 and 200 with the larger total delta; only_a
  // covers 100 and event 300, which nothing else covers; only_b covers 200
  // alone. Greedy picks `shared` first, then only_a for event 300 — never
  // only_b, whose one event is already covered.
  FuzzResult result;
  const Gadget shared{1, 2}, only_a{3, 4}, only_b{5, 6};
  EventFuzzReport ra, rb, rc;
  ra.event_id = 100;
  ra.confirmed = {{shared, 20.0}, {only_a, 0.5}};
  rb.event_id = 200;
  rb.confirmed = {{shared, 20.0}, {only_b, 50.0}};
  rc.event_id = 300;
  rc.confirmed = {{only_a, 0.25}};
  result.reports = {ra, rb, rc};
  const GadgetCover cover = minimal_gadget_cover(result);
  EXPECT_EQ(cover.gadgets, (std::vector<Gadget>{shared, only_a}));
  EXPECT_TRUE(cover.uncovered_events.empty());
  // The segment runs every chosen gadget once, so event 100 sums both
  // chosen gadgets' deltas.
  const std::vector<std::pair<std::uint32_t, double>> want = {
      {100, 20.5}, {200, 20.0}, {300, 0.25}};
  EXPECT_EQ(cover.segment_effect, want);
}

TEST(SetCover, DeterministicAcrossRunsAndInsertionOrders) {
  // Regression for the hash-order tie-break bug: three gadgets cover the
  // same two events with IDENTICAL deltas, so the old implementation's
  // winner depended on unordered_map iteration order (stdlib + insertion
  // sequence). The cover must now be a pure function of the set of
  // confirmed gadgets: same result on every run and for every insertion
  // order of the reports and their confirmed lists.
  const Gadget tie_a{5, 9}, tie_b{2, 7}, tie_c{9, 1};
  const Gadget only_a{11, 3}, only_b{4, 12};
  const std::vector<ConfirmedGadget> base_a = {
      {tie_a, 10.0}, {tie_b, 10.0}, {tie_c, 10.0}, {only_a, 3.0}};
  const std::vector<ConfirmedGadget> base_b = {
      {tie_a, 10.0}, {tie_b, 10.0}, {tie_c, 10.0}, {only_b, 3.0}};
  const auto make_result = [](std::vector<ConfirmedGadget> ca,
                              std::vector<ConfirmedGadget> cb,
                              bool swap_reports) {
    EventFuzzReport ra, rb;
    ra.event_id = 100;
    ra.confirmed = std::move(ca);
    rb.event_id = 200;
    rb.confirmed = std::move(cb);
    FuzzResult result;
    if (swap_reports) {
      result.reports = {rb, ra};
    } else {
      result.reports = {ra, rb};
    }
    return result;
  };
  const auto expect_same = [](const GadgetCover& got, const GadgetCover& want,
                              const char* what) {
    EXPECT_EQ(got.gadgets, want.gadgets) << what;
    EXPECT_EQ(got.covered_events, want.covered_events) << what;
    EXPECT_EQ(got.uncovered_events, want.uncovered_events) << what;
    EXPECT_EQ(got.segment_effect, want.segment_effect) << what;
  };

  const GadgetCover base = minimal_gadget_cover(make_result(base_a, base_b, false));
  ASSERT_EQ(base.gadgets.size(), 1u);
  // The pure tie must resolve to the lowest (reset_uid, trigger_uid) key.
  EXPECT_EQ(base.gadgets[0], tie_b);

  // Same input, repeated runs.
  for (int run = 0; run < 3; ++run) {
    expect_same(minimal_gadget_cover(make_result(base_a, base_b, false)), base,
                "repeated run");
  }
  // Every rotation of both confirmed lists, with and without swapped
  // report order — each permutation changes the hash maps' insertion
  // sequence, which the old tie-break leaked into the output.
  for (std::size_t rot = 0; rot < base_a.size(); ++rot) {
    std::vector<ConfirmedGadget> ca(base_a.begin() + rot, base_a.end());
    ca.insert(ca.end(), base_a.begin(), base_a.begin() + rot);
    std::vector<ConfirmedGadget> cb(base_b.rbegin(), base_b.rend());
    std::rotate(cb.begin(), cb.begin() + rot, cb.end());
    expect_same(minimal_gadget_cover(make_result(ca, cb, false)), base,
                "rotated confirmed lists");
    expect_same(minimal_gadget_cover(make_result(ca, cb, true)), base,
                "rotated lists + swapped reports");
  }
}

// The cover as computed before it read the reports in place: every pair
// copied into one flat list, sorted by (gadget key, event index), each
// repeated (gadget, event) pair collapsed to its largest delta floored at
// 0, then the greedy scan over per-gadget runs.
GadgetCover flat_list_cover(const FuzzResult& result) {
  struct Effect {
    Gadget gadget;
    std::uint32_t event = 0;
    double delta = 0.0;
  };
  const auto less = [](const Effect& a, const Effect& b) {
    return std::tie(a.gadget.reset_uid, a.gadget.trigger_uid, a.event) <
           std::tie(b.gadget.reset_uid, b.gadget.trigger_uid, b.event);
  };
  GadgetCover cover;
  for (const EventFuzzReport& report : result.reports) {
    (report.confirmed.empty() ? cover.uncovered_events : cover.covered_events)
        .push_back(report.event_id);
  }
  std::vector<std::uint32_t>& covered = cover.covered_events;
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  std::vector<Effect> effects;
  for (const EventFuzzReport& report : result.reports) {
    const auto event = static_cast<std::uint32_t>(
        std::lower_bound(covered.begin(), covered.end(), report.event_id) -
        covered.begin());
    for (const ConfirmedGadget& g : report.confirmed) {
      effects.push_back(Effect{g.gadget, event, g.median_delta});
    }
  }
  std::sort(effects.begin(), effects.end(), less);
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // per gadget
  std::size_t kept = 0;
  for (std::size_t i = 0; i < effects.size();) {
    Effect e = effects[i];
    e.delta = 0.0;
    for (; i < effects.size() && !less(e, effects[i]); ++i) {
      e.delta = std::max(e.delta, effects[i].delta);
    }
    if (runs.empty() || !(effects[runs.back().first].gadget == e.gadget)) {
      runs.emplace_back(kept, kept);
    }
    effects[kept++] = e;
    runs.back().second = kept;
  }
  std::vector<char> uncovered(covered.size(), 1);
  std::vector<char> chosen(runs.size(), 0);
  for (;;) {
    std::size_t best = runs.size();
    std::size_t best_newly = 0;
    double best_delta = 0.0;
    for (std::size_t c = 0; c < runs.size(); ++c) {
      std::size_t newly = 0;
      double delta = 0.0;
      for (std::size_t i = runs[c].first; i < runs[c].second; ++i) {
        if (uncovered[effects[i].event] != 0) {
          ++newly;
          delta += effects[i].delta;
        }
      }
      if (newly > best_newly ||
          (newly == best_newly && newly > 0 && delta > best_delta)) {
        best = c;
        best_newly = newly;
        best_delta = delta;
      }
    }
    if (best_newly == 0) break;
    chosen[best] = 1;
    cover.gadgets.push_back(effects[runs[best].first].gadget);
    for (std::size_t i = runs[best].first; i < runs[best].second; ++i) {
      uncovered[effects[i].event] = 0;
    }
  }
  std::vector<double> segment(covered.size(), 0.0);
  for (std::size_t c = 0; c < runs.size(); ++c) {
    if (chosen[c] == 0) continue;
    for (std::size_t i = runs[c].first; i < runs[c].second; ++i) {
      segment[effects[i].event] += effects[i].delta;
    }
  }
  for (std::size_t k = 0; k < segment.size(); ++k) {
    cover.segment_effect.emplace_back(covered[k], segment[k]);
  }
  return cover;
}

TEST(SetCover, MatchesTheFlatListCoverBitForBit) {
  // Seeded random results with the cases the in-place cover must collapse
  // exactly as the flat list did: several reports of one event, a gadget
  // confirmed twice for an event, negative deltas, tied deltas and empty
  // reports. Deltas are drawn with many fractional bits so that a changed
  // summation order would show.
  util::Rng rng(0xC0FE4ULL);
  for (int trial = 0; trial < 200; ++trial) {
    FuzzResult result;
    const auto reports = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto grid = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    for (std::size_t r = 0; r < reports; ++r) {
      EventFuzzReport report;
      report.event_id = static_cast<std::uint32_t>(rng.uniform_int(0, 9));
      const auto records = static_cast<std::size_t>(rng.uniform_int(0, 24));
      for (std::size_t i = 0; i < records; ++i) {
        const Gadget g{static_cast<std::uint32_t>(rng.uniform_index(grid)),
                       static_cast<std::uint32_t>(rng.uniform_index(grid))};
        const double delta = trial % 2 == 0
                                 ? rng.uniform(-1.0, 10.0)
                                 : static_cast<double>(rng.uniform_int(0, 3));
        report.confirmed.push_back({g, delta});
      }
      result.reports.push_back(std::move(report));
    }
    const GadgetCover got = minimal_gadget_cover(result);
    const GadgetCover want = flat_list_cover(result);
    EXPECT_EQ(got.gadgets, want.gadgets) << trial;
    EXPECT_EQ(got.covered_events, want.covered_events) << trial;
    EXPECT_EQ(got.uncovered_events, want.uncovered_events) << trial;
    ASSERT_EQ(got.segment_effect.size(), want.segment_effect.size()) << trial;
    for (std::size_t k = 0; k < got.segment_effect.size(); ++k) {
      EXPECT_EQ(got.segment_effect[k].first, want.segment_effect[k].first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.segment_effect[k].second),
                std::bit_cast<std::uint64_t>(want.segment_effect[k].second))
          << trial << " event " << got.segment_effect[k].first;
    }
  }
}

TEST(SetCover, PeakLiveBytesStayBelowSixteenPerPair) {
  // A fuzz result shaped like a paper-default analysis: every event
  // confirms about half of one 48 x 48 reset/trigger grid. The cover reads
  // the pairs in place, so its transient memory is a 4-byte index per pair
  // plus per-gadget state — below the 16 bytes a copied record would take.
  constexpr std::uint32_t kGrid = 48;
  constexpr std::uint32_t kEvents = 96;
  FuzzResult result;
  util::Rng rng(0x5E7C0FULL);
  std::size_t pairs = 0;
  for (std::uint32_t e = 0; e < kEvents; ++e) {
    EventFuzzReport report;
    report.event_id = 1000 + e;
    for (std::uint32_t reset = 0; reset < kGrid; ++reset) {
      for (std::uint32_t trigger = 0; trigger < kGrid; ++trigger) {
        if (rng.bernoulli(0.5)) {
          report.confirmed.push_back({{reset, trigger}, rng.uniform(0.3, 9.0)});
        }
      }
    }
    rng.shuffle(report.confirmed);
    pairs += report.confirmed.size();
    result.reports.push_back(std::move(report));
  }

  g_live_bytes = 0;
  g_peak_live_bytes = 0;
  g_count_allocs = true;
  const GadgetCover cover = minimal_gadget_cover(result);
  g_count_allocs = false;
  EXPECT_FALSE(cover.gadgets.empty());
  EXPECT_EQ(cover.covered_events.size(), kEvents);
  EXPECT_LT(static_cast<std::size_t>(g_peak_live_bytes.load()), pairs * 16)
      << pairs << " pairs";
}

TEST(FuzzerConfig, UnrollsAreIntegralRepetitionCounts) {
  // The unrolls are how many back-to-back copies of an instruction the
  // generated code contains; a fractional instruction cannot be emitted, so
  // the knobs are integral (the historical double declaration was doc
  // drift).
  static_assert(std::is_integral_v<decltype(FuzzerConfig{}.reset_unroll)>);
  static_assert(std::is_integral_v<decltype(FuzzerConfig{}.trigger_unroll)>);
  static_assert(std::is_integral_v<decltype(ConfirmationParams{}.reset_unroll)>);
  static_assert(
      std::is_integral_v<decltype(ConfirmationParams{}.trigger_unroll)>);
  // Defaults stay in sync between the config and the confirmation stage.
  EXPECT_EQ(FuzzerConfig{}.reset_unroll, ConfirmationParams{}.reset_unroll);
  EXPECT_EQ(FuzzerConfig{}.trigger_unroll, ConfirmationParams{}.trigger_unroll);
}

TEST(FuzzerConfig, UnrollScalesExecutionLinearly) {
  // An unroll of n must behave as exactly n repetitions: the generated
  // block's retired-instruction counts scale linearly and stay integral.
  Fixture f;
  const auto& v = f.spec.by_uid(f.find_variant(InstructionClass::kIntAlu));
  const sim::InstructionBlock one =
      sim::InstructionBlock::from_variant(v, 1.0, sim::kGadgetDataRegion);
  const FuzzerConfig config;
  const sim::InstructionBlock unrolled = sim::InstructionBlock::from_variant(
      v, static_cast<double>(config.trigger_unroll), sim::kGadgetDataRegion);
  const double n = static_cast<double>(config.trigger_unroll);
  EXPECT_DOUBLE_EQ(unrolled.uops, one.uops * n);
  for (std::size_t c = 0; c < one.class_counts.size(); ++c) {
    EXPECT_DOUBLE_EQ(unrolled.class_counts.at_index(c),
                     one.class_counts.at_index(c) * n)
        << c;
    EXPECT_DOUBLE_EQ(unrolled.class_counts.at_index(c),
                     std::round(unrolled.class_counts.at_index(c)))
        << "fractional retired count at class " << c;
  }
}

TEST(GadgetHash, DistinguishesGadgets) {
  GadgetHash h;
  EXPECT_NE(h(Gadget{1, 2}), h(Gadget{2, 1}));
  EXPECT_EQ(h(Gadget{7, 9}), h(Gadget{7, 9}));
}

}  // namespace
}  // namespace aegis::fuzzer
