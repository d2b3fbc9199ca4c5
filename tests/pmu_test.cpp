#include <gtest/gtest.h>

#include <set>

#include "pmu/counter_file.hpp"
#include "pmu/event_database.hpp"

namespace aegis::pmu {
namespace {

using isa::CpuModel;
using isa::InstructionClass;

class DbPerCpuTest : public ::testing::TestWithParam<CpuModel> {};

TEST_P(DbPerCpuTest, EventCountMatchesTableI) {
  const EventDatabase db = EventDatabase::generate(GetParam());
  switch (GetParam()) {
    case CpuModel::kIntelXeonE5_1650: EXPECT_EQ(db.size(), 6166u); break;
    case CpuModel::kIntelXeonE5_4617: EXPECT_EQ(db.size(), 6172u); break;
    case CpuModel::kAmdEpyc7252:
    case CpuModel::kAmdEpyc7313P: EXPECT_EQ(db.size(), 1903u); break;
  }
}

TEST_P(DbPerCpuTest, GuestVisibleCountMatchesWarmupSurvivors) {
  const EventDatabase db = EventDatabase::generate(GetParam());
  std::size_t visible = 0;
  for (const auto& e : db.events()) {
    if (e.response.guest_visible()) ++visible;
  }
  // Section V-B: ~738 events survive warm-up on Intel, 137 on AMD. (One
  // AMD HC event was dropped as physically meaningless: ITLB writes.)
  if (isa::vendor_of(GetParam()) == isa::Vendor::kIntel) {
    EXPECT_NEAR(static_cast<double>(visible), 739.0, 4.0);
  } else {
    EXPECT_NEAR(static_cast<double>(visible), 137.0, 4.0);
  }
}

TEST_P(DbPerCpuTest, IdsAreDense) {
  const EventDatabase db = EventDatabase::generate(GetParam());
  for (std::uint32_t i = 0; i < db.size(); i += 53) {
    EXPECT_EQ(db.by_id(i).id, i);
  }
  EXPECT_THROW(db.by_id(static_cast<std::uint32_t>(db.size())), std::out_of_range);
}

TEST_P(DbPerCpuTest, TracepointsDominateTypeMix) {
  const EventDatabase db = EventDatabase::generate(GetParam());
  const auto counts = db.count_by_type();
  const double total = static_cast<double>(db.size());
  const double t_frac =
      static_cast<double>(counts[static_cast<std::size_t>(EventType::kTracepoint)]) /
      total;
  // Table II: T = 36.15 % (Intel) / 87.17 % (AMD).
  if (isa::vendor_of(GetParam()) == isa::Vendor::kIntel) {
    EXPECT_NEAR(t_frac, 0.3615, 0.01);
  } else {
    EXPECT_NEAR(t_frac, 0.8717, 0.01);
  }
}

TEST_P(DbPerCpuTest, SoftwareAndOtherEventsNeverGuestVisible) {
  const EventDatabase db = EventDatabase::generate(GetParam());
  for (const auto& e : db.events()) {
    if (e.type == EventType::kSoftware || e.type == EventType::kOther) {
      EXPECT_FALSE(e.response.guest_visible()) << e.name;
    }
    if (e.type == EventType::kHardware || e.type == EventType::kHwCache) {
      EXPECT_TRUE(e.response.guest_visible()) << e.name;
    }
  }
}

TEST_P(DbPerCpuTest, NamesAreUnique) {
  const EventDatabase db = EventDatabase::generate(GetParam());
  std::set<std::string> names;
  for (const auto& e : db.events()) names.insert(e.name);
  EXPECT_EQ(names.size(), db.size());
}

INSTANTIATE_TEST_SUITE_P(AllCpus, DbPerCpuTest,
                         ::testing::Values(CpuModel::kIntelXeonE5_1650,
                                           CpuModel::kIntelXeonE5_4617,
                                           CpuModel::kAmdEpyc7252,
                                           CpuModel::kAmdEpyc7313P));

TEST(Db, AmdFamilyMembersShareAllEvents) {
  const auto a = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  const auto b = EventDatabase::generate(CpuModel::kAmdEpyc7313P);
  ASSERT_EQ(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.events()[i].name != b.events()[i].name) ++differing;
  }
  EXPECT_EQ(differing, 0u);  // Table I: "# of Different Events" = 0
}

TEST(Db, IntelFamilyMembersDifferInFourteenEvents) {
  const auto a = EventDatabase::generate(CpuModel::kIntelXeonE5_1650);
  const auto b = EventDatabase::generate(CpuModel::kIntelXeonE5_4617);
  std::set<std::string> names_a, names_b;
  for (const auto& e : a.events()) names_a.insert(e.name);
  for (const auto& e : b.events()) names_b.insert(e.name);
  std::size_t only_a = 0, only_b = 0;
  for (const auto& n : names_a) {
    if (!names_b.contains(n)) ++only_a;
  }
  for (const auto& n : names_b) {
    if (!names_a.contains(n)) ++only_b;
  }
  EXPECT_EQ(only_a + only_b, 14u);  // Table I: "# of Different Events" = 14
}

TEST(Db, PaperNamedAmdEventsExist) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  for (auto name : kAmdAttackEvents) {
    EXPECT_TRUE(db.find(name).has_value()) << name;
  }
  EXPECT_TRUE(db.find("RETIRED_MMX_FP_INSTRUCTIONS:SSE_INSTR").has_value());
  EXPECT_TRUE(db.find("HW_CACHE_L1D:WRITE:ACCESS").has_value());
}

TEST(Db, PaperNamedIntelEventExists) {
  const auto db = EventDatabase::generate(CpuModel::kIntelXeonE5_1650);
  EXPECT_TRUE(db.find("MEM_LOAD_UOPS_RETIRED:L1_HIT").has_value());
}

TEST(Db, FindMissingEventReturnsNullopt) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  EXPECT_FALSE(db.find("NO_SUCH_EVENT").has_value());
}

TEST(EventResponse, SemanticResponsesMatchStats) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  ExecutionStats stats;
  stats.uops = 100;
  stats.mem_reads = 10;
  stats.mem_writes = 5;
  stats.l1_misses = 3;
  stats.llc_misses = 2;

  const auto& uops = db.by_id(*db.find("RETIRED_UOPS")).response;
  EXPECT_DOUBLE_EQ(uops.expected_count(stats), 100.0);
  const auto& ls = db.by_id(*db.find("LS_DISPATCH")).response;
  EXPECT_DOUBLE_EQ(ls.expected_count(stats), 15.0);
  const auto& mab = db.by_id(*db.find("MAB_ALLOCATION_BY_PIPE")).response;
  EXPECT_DOUBLE_EQ(mab.expected_count(stats), 3.0);
  const auto& refill = db.by_id(*db.find("DATA_CACHE_REFILLS_FROM_SYSTEM")).response;
  EXPECT_DOUBLE_EQ(refill.expected_count(stats), 2.0);
}

TEST(EventResponse, NegativeCoefficientsClampAtZero) {
  const auto db = EventDatabase::generate(CpuModel::kIntelXeonE5_1650);
  const auto& hit = db.by_id(*db.find("MEM_LOAD_UOPS_RETIRED:L1_HIT")).response;
  ExecutionStats stats;
  stats.mem_reads = 2;
  stats.l1_misses = 10;  // more misses than loads: hits clamp at 0
  EXPECT_DOUBLE_EQ(hit.expected_count(stats), 0.0);
}

TEST(ExecutionStats, AccumulateAndTotals) {
  ExecutionStats a, b;
  a.class_counts[InstructionClass::kLoad] = 5;
  a.uops = 10;
  a.cycles = 100;
  b.class_counts[InstructionClass::kLoad] = 2;
  b.class_counts[InstructionClass::kStore] = 3;
  b.uops = 7;
  a += b;
  EXPECT_DOUBLE_EQ(a.class_counts[InstructionClass::kLoad], 7.0);
  EXPECT_DOUBLE_EQ(a.total_instructions(), 10.0);
  EXPECT_DOUBLE_EQ(a.uops, 17.0);
}

TEST(CounterFile, ProgramAndAccumulate) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  CounterRegisterFile counters(db, 1);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  counters.program({uops_id});
  ExecutionStats stats;
  stats.uops = 1000;
  counters.accumulate(stats);
  // Measurement noise is bounded to a few percent of the expected count.
  EXPECT_NEAR(counters.read_raw(uops_id), 1000.0, 150.0);
  EXPECT_FALSE(counters.multiplexed());
}

TEST(CounterFile, ResetClearsCounts) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  CounterRegisterFile counters(db, 2);
  const std::uint32_t id = *db.find("RETIRED_UOPS");
  counters.program({id});
  ExecutionStats stats;
  stats.uops = 500;
  counters.tick(stats);
  counters.reset();
  EXPECT_DOUBLE_EQ(counters.read_raw(id), 0.0);
}

TEST(CounterFile, ReadUnprogrammedEventThrows) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  CounterRegisterFile counters(db, 3);
  counters.program({0});
  EXPECT_THROW(counters.read(1), std::invalid_argument);
}

TEST(CounterFile, MultiplexScalingApproximatesFullCount) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  // 8 events on 4 registers: each active half the time; perf-style scaling
  // should roughly recover the full-window count for steady activity.
  std::vector<std::uint32_t> ids;
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  ids.push_back(uops_id);
  for (std::uint32_t i = 0; ids.size() < 8; ++i) {
    if (i != uops_id && db.by_id(i).response.guest_visible()) ids.push_back(i);
  }
  CounterRegisterFile counters(db, 4);
  counters.program(ids);
  EXPECT_TRUE(counters.multiplexed());
  ExecutionStats stats;
  stats.uops = 1000;
  const int slices = 200;
  for (int t = 0; t < slices; ++t) counters.tick(stats);
  const double scaled = counters.read(uops_id);
  EXPECT_NEAR(scaled, 1000.0 * slices, 1000.0 * slices * 0.12);
  // The raw count is roughly half, since the event was active half the time.
  EXPECT_NEAR(counters.read_raw(uops_id), 1000.0 * slices / 2.0,
              1000.0 * slices * 0.12);
}

TEST(CounterFile, HostBackgroundAccruesForHostOnlyEvents) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  // Find a host-only event with a non-zero background rate.
  std::uint32_t host_event = 0;
  bool found = false;
  for (const auto& e : db.events()) {
    if (!e.response.guest_visible() && e.response.host_background > 1.0f) {
      host_event = e.id;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  CounterRegisterFile counters(db, 5);
  counters.program({host_event});
  ExecutionStats idle;  // no guest work at all
  for (int t = 0; t < 100; ++t) counters.tick(idle);
  EXPECT_GT(counters.read_raw(host_event), 0.0);
}

namespace {
/// Eight guest-visible events (two counter groups) with RETIRED_UOPS at the
/// given slot, so tests can pin which multiplex group it lands in.
std::vector<std::uint32_t> eight_events_with_uops_at(const EventDatabase& db,
                                                     std::size_t slot) {
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; ids.size() < 8; ++i) {
    if (ids.size() == slot) {
      ids.push_back(uops_id);
      continue;
    }
    if (i != uops_id && db.by_id(i).response.guest_visible()) ids.push_back(i);
  }
  return ids;
}
}  // namespace

TEST(CounterFile, EndSliceRotatesActiveGroup) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  // RETIRED_UOPS in slot 4 = the second counter group.
  CounterRegisterFile counters(db, 6);
  counters.program(eight_events_with_uops_at(db, 4));
  ExecutionStats stats;
  stats.uops = 1000;

  // Group 0 is active first: work accumulated now must not reach group 1.
  counters.accumulate(stats);
  EXPECT_DOUBLE_EQ(counters.read_raw(uops_id), 0.0);

  // end_slice rotates to group 1; the same work now lands on RETIRED_UOPS.
  counters.end_slice();
  counters.accumulate(stats);
  const double after_rotation = counters.read_raw(uops_id);
  EXPECT_GT(after_rotation, 0.0);

  // The next end_slice applies per-slice noise to group 1 (still active),
  // then wraps back to group 0: RETIRED_UOPS stops counting entirely.
  counters.end_slice();
  const double after_wrap = counters.read_raw(uops_id);
  counters.accumulate(stats);
  EXPECT_DOUBLE_EQ(counters.read_raw(uops_id), after_wrap);
}

TEST(CounterFile, ReadExtrapolatesByActiveSliceRatio) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  CounterRegisterFile counters(db, 7);
  counters.program(eight_events_with_uops_at(db, 0));
  ExecutionStats stats;
  stats.uops = 1000;
  // 16 slices over 2 groups: each group active exactly 8. The perf-style
  // estimate is count * total_slices / active_slices = count * 2, and with
  // power-of-two slice counts the scaling is exact in floating point.
  for (int t = 0; t < 16; ++t) counters.tick(stats);
  const double raw = counters.read_raw(uops_id);
  ASSERT_GT(raw, 0.0);
  EXPECT_DOUBLE_EQ(counters.read(uops_id), raw * 2.0);
}

TEST(CounterFile, ReadBeforeAnyCompletedSliceIsZero) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  const std::uint32_t uops_id = *db.find("RETIRED_UOPS");
  CounterRegisterFile counters(db, 8);
  counters.program(eight_events_with_uops_at(db, 0));
  ExecutionStats stats;
  stats.uops = 1000;
  // Work accumulated but no slice completed: active_slices is still 0, so
  // the scaled estimate reports 0 even though raw counts exist (perf has no
  // running-time to extrapolate from).
  counters.accumulate(stats);
  EXPECT_GT(counters.read_raw(uops_id), 0.0);
  EXPECT_DOUBLE_EQ(counters.read(uops_id), 0.0);
}

TEST(CounterFile, ReadAllIntoBufferMatchesReadAll) {
  const auto db = EventDatabase::generate(CpuModel::kAmdEpyc7252);
  CounterRegisterFile counters(db, 9);
  counters.program(eight_events_with_uops_at(db, 3));
  ExecutionStats stats;
  stats.uops = 1000;
  stats.cycles = 700;
  std::vector<double> buffer(8, -1.0);
  for (int t = 0; t < 5; ++t) {
    counters.tick(stats);
    counters.read_all(buffer);
    EXPECT_EQ(buffer, counters.read_all()) << "slice " << t;
  }
  std::vector<double> short_buffer(7);
  EXPECT_THROW(counters.read_all(short_buffer), std::invalid_argument);
}

TEST(EventResponse, GuestVisibleIgnoresInterruptCoupling) {
  // Interrupt delivery is host-scheduled noise (C2): an event coupled only
  // to interrupts says nothing about guest activity and must not pass the
  // warm-up filter. See the invariant note on guest_visible().
  EventResponse response;
  response.per_interrupt = 5.0f;
  EXPECT_FALSE(response.guest_visible());
  // Its expected count still reflects interrupts...
  ExecutionStats stats;
  stats.interrupts = 3;
  EXPECT_DOUBLE_EQ(response.expected_count(stats), 15.0);
  // ...and any genuine guest coefficient flips visibility.
  response.per_uop = 1.0f;
  EXPECT_TRUE(response.guest_visible());
}

TEST(EventType, ShortCodesMatchTableII) {
  EXPECT_EQ(short_code(EventType::kHardware), "H");
  EXPECT_EQ(short_code(EventType::kSoftware), "S");
  EXPECT_EQ(short_code(EventType::kHwCache), "HC");
  EXPECT_EQ(short_code(EventType::kTracepoint), "T");
  EXPECT_EQ(short_code(EventType::kRawCpu), "R");
  EXPECT_EQ(short_code(EventType::kOther), "O");
}

}  // namespace
}  // namespace aegis::pmu
