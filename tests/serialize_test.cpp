#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/wfa.hpp"
#include "core/serialize.hpp"
#include "pmu/backend/backend.hpp"
#include "util/rng.hpp"

namespace aegis::core {
namespace {

struct Fixture {
  Aegis aegis{isa::CpuModel::kAmdEpyc7252};
  std::vector<std::unique_ptr<workload::Workload>> secrets;
  OfflineResult result;

  Fixture() {
    attack::WfaScale scale;
    scale.sites = 4;
    scale.slices = 100;
    secrets = attack::make_wfa_secrets(scale);
    OfflineConfig config = make_quick_offline_config();
    config.profiler.ranking_runs_per_secret = 3;
    config.fuzz_top_events = 12;
    result = aegis.analyze(*secrets[0], secrets, config);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Serialize, RoundTripsEveryComponent) {
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  const OfflineResult loaded =
      load_offline_result(stream, f.aegis.database(),
                          f.aegis.specification());

  EXPECT_EQ(loaded.warmup.surviving, f.result.warmup.surviving);
  ASSERT_EQ(loaded.ranking.size(), f.result.ranking.size());
  for (std::size_t i = 0; i < loaded.ranking.size(); ++i) {
    EXPECT_EQ(loaded.ranking[i].event_id, f.result.ranking[i].event_id);
    EXPECT_NEAR(loaded.ranking[i].mutual_information,
                f.result.ranking[i].mutual_information, 1e-4);
  }
  ASSERT_EQ(loaded.fuzz.reports.size(), f.result.fuzz.reports.size());
  for (std::size_t i = 0; i < loaded.fuzz.reports.size(); ++i) {
    const auto& a = loaded.fuzz.reports[i];
    const auto& b = f.result.fuzz.reports[i];
    EXPECT_EQ(a.event_id, b.event_id);
    ASSERT_EQ(a.confirmed.size(), b.confirmed.size());
    for (std::size_t g = 0; g < a.confirmed.size(); ++g) {
      EXPECT_EQ(a.confirmed[g].gadget, b.confirmed[g].gadget);
      EXPECT_NEAR(a.confirmed[g].median_delta, b.confirmed[g].median_delta, 1e-4);
    }
    EXPECT_EQ(a.best.gadget, b.best.gadget);
  }
  EXPECT_EQ(loaded.cover.gadgets, f.result.cover.gadgets);
  EXPECT_EQ(loaded.cover.covered_events.size(),
            f.result.cover.covered_events.size());
  EXPECT_EQ(loaded.cover.uncovered_events, f.result.cover.uncovered_events);
}

TEST(Serialize, LoadedResultBuildsAWorkingObfuscator) {
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  const OfflineResult loaded = load_offline_result(stream, f.aegis.database(),
                                                   f.aegis.specification());

  dp::MechanismConfig mech;
  mech.kind = dp::MechanismKind::kLaplace;
  mech.epsilon = 0.5;
  auto obf = f.aegis.make_obfuscator(loaded, f.secrets, mech);
  sim::VirtualMachine vm(sim::VmConfig{}, 1);
  auto agent = obf->session();
  for (std::size_t t = 0; t < 50; ++t) {
    agent(vm, t);
    (void)vm.run_slice();
  }
  EXPECT_GT(obf->total_injected_repetitions(), 0.0);
}

TEST(Serialize, LoadsAcrossFamilyMembers) {
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  // The 7313P shares the 7252's event list (Table I): the analysis ports.
  const Aegis sibling{isa::CpuModel::kAmdEpyc7313P};
  const OfflineResult loaded = load_offline_result(
      stream, sibling.database(), sibling.specification());
  EXPECT_EQ(loaded.warmup.surviving.size(), f.result.warmup.surviving.size());
}

TEST(Serialize, RejectsCrossVendorLoads) {
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  const Aegis intel{isa::CpuModel::kIntelXeonE5_1650};
  EXPECT_THROW((void)load_offline_result(stream, intel.database(),
                                         intel.specification()),
               std::runtime_error);
}

TEST(Serialize, IntelResultsPortWithinTheXeonE5Family) {
  // Cross-SKU port on the OTHER vendor: a template analyzed on the E5-1650
  // loads on the E5-4617 (14 of 6166+ events differ, none of which the
  // warm-up survivors reference), and is refused by the AMD family.
  Aegis intel{isa::CpuModel::kIntelXeonE5_1650};
  auto& f = fixture();
  attack::WfaScale scale;
  scale.sites = 2;
  scale.slices = 40;
  auto secrets = attack::make_wfa_secrets(scale);
  OfflineConfig config = make_quick_offline_config();
  config.profiler.ranking_runs_per_secret = 3;
  config.fuzz_top_events = 4;
  const OfflineResult result = intel.analyze(*secrets[0], secrets, config);

  std::stringstream stream;
  save_offline_result(stream, result, intel.database());
  const std::string text = stream.str();
  EXPECT_NE(text.find("backend intel-xeon-e5\n"), std::string::npos);

  const Aegis sibling{isa::CpuModel::kIntelXeonE5_4617};
  std::stringstream again(text);
  const OfflineResult loaded = load_offline_result(
      again, sibling.database(), sibling.specification());
  EXPECT_EQ(loaded.warmup.surviving.size(), result.warmup.surviving.size());

  std::stringstream cross(text);
  EXPECT_THROW((void)load_offline_result(cross, f.aegis.database(),
                                         f.aegis.specification()),
               std::runtime_error);
}

TEST(Serialize, RejectsVersion1Streams) {
  // Only the current format loads: a v1 stream (written before the backend
  // line existed) is refused up front, so a template cache re-analyses.
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  std::string text = stream.str();
  const std::string header = "aegis-offline-result v2\n";
  const std::string backend_line = "backend amd-zen2\n";
  ASSERT_EQ(text.rfind(header, 0), 0u);
  const auto pos = text.find(backend_line);
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, backend_line.size());
  text.replace(0, header.size(), "aegis-offline-result v1\n");
  std::stringstream v1(text);
  try {
    (void)load_offline_result(v1, f.aegis.database(), f.aegis.specification());
    FAIL() << "v1 stream must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format v1 is not v2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, RejectsBackendMismatchInVersion2Streams) {
  // A tampered (or wrongly routed) v2 stream whose backend line disagrees
  // with the loading model's backend is refused with a clear error.
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  std::string text = stream.str();
  const auto pos = text.find("backend amd-zen2\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("backend amd-zen2").size(),
               "backend intel-xeon-e5");
  std::stringstream tampered(text);
  try {
    (void)load_offline_result(tampered, f.aegis.database(),
                              f.aegis.specification());
    FAIL() << "backend-mismatched stream must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("backend mismatch"),
              std::string::npos);
  }
}

TEST(Serialize, RejectsGarbage) {
  auto& f = fixture();
  std::stringstream bad("not an aegis file\n");
  EXPECT_THROW((void)load_offline_result(bad, f.aegis.database(),
                                         f.aegis.specification()),
               std::runtime_error);
  std::stringstream truncated(
      "aegis-offline-result v2\ncpu AMD EPYC 7252\nbackend amd-zen2\n");
  EXPECT_THROW((void)load_offline_result(truncated, f.aegis.database(),
                                         f.aegis.specification()),
               std::runtime_error);
}

TEST(Serialize, RejectsFutureFormatVersionsWithAClearError) {
  auto& f = fixture();
  std::stringstream stream;
  save_offline_result(stream, f.result, f.aegis.database());
  std::string text = stream.str();

  // Hand-edit the header to claim a future format version: a stream from
  // a newer build must be refused up front, not mis-parsed downstream.
  const std::string header = "aegis-offline-result v2";
  ASSERT_EQ(text.rfind(header, 0), 0u);
  text.replace(0, header.size(), "aegis-offline-result v7");
  std::stringstream future(text);
  try {
    (void)load_offline_result(future, f.aegis.database(),
                              f.aegis.specification());
    FAIL() << "future-version stream must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("v7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }

  // Versions that are merely garbage are rejected as malformed.
  std::stringstream junk("aegis-offline-result vQ\n");
  EXPECT_THROW((void)load_offline_result(junk, f.aegis.database(),
                                         f.aegis.specification()),
               std::runtime_error);
  std::stringstream zero("aegis-offline-result v0\n");
  EXPECT_THROW((void)load_offline_result(zero, f.aegis.database(),
                                         f.aegis.specification()),
               std::runtime_error);
}

// A minimal hand-written v2 stream with one row of every kind; each
// malformed-row test below garbles exactly one row of it.
std::string minimal_stream(const std::string& ranking_row,
                           const std::string& gadget_header,
                           const std::string& gadget_row,
                           const std::string& cover_gadget,
                           const std::string& cover_effect) {
  return "aegis-offline-result v2\ncpu AMD EPYC 7252\nbackend amd-zen2\n"
         "[warmup]\n0\n[ranking]\n1\n" + ranking_row +
         "\n[gadgets]\n1\n" + gadget_header + "\n" + gadget_row +
         "\n[cover]\n1\n" + cover_gadget + "\n1\n" + cover_effect +
         "\n0\n";
}

const char* const kRankingRow = "0.5\tRETIRED_UOPS";
const char* const kGadgetHeader = "RETIRED_UOPS\t1\t3\t4\t2.5";
const char* const kGadgetRow = "3\t4\t2.5";
const char* const kCoverGadget = "3\t4";
const char* const kCoverEffect = "2.5\tRETIRED_UOPS";

const isa::IsaSpecification& amd_spec() {
  static const isa::IsaSpecification spec =
      isa::IsaSpecification::generate(isa::CpuModel::kAmdEpyc7252);
  return spec;
}

OfflineResult load_text(const std::string& text) {
  std::istringstream is(text);
  return load_offline_result(
      is, pmu::backend::backend_for(isa::CpuModel::kAmdEpyc7252).database(),
      amd_spec());
}

TEST(SerializeMalformed, MinimalStreamLoads) {
  const OfflineResult r = load_text(minimal_stream(
      kRankingRow, kGadgetHeader, kGadgetRow, kCoverGadget, kCoverEffect));
  ASSERT_EQ(r.ranking.size(), 1u);
  EXPECT_EQ(r.ranking[0].mutual_information, 0.5);
  ASSERT_EQ(r.fuzz.reports.size(), 1u);
  ASSERT_EQ(r.fuzz.reports[0].confirmed.size(), 1u);
  EXPECT_EQ(r.fuzz.reports[0].confirmed[0].gadget, (fuzzer::Gadget{3, 4}));
  EXPECT_EQ(r.fuzz.reports[0].confirmed[0].median_delta, 2.5);
  EXPECT_EQ(r.cover.gadgets, (std::vector<fuzzer::Gadget>{{3, 4}}));
  ASSERT_EQ(r.cover.segment_effect.size(), 1u);
  EXPECT_EQ(r.cover.segment_effect[0].second, 2.5);
}

TEST(SerializeMalformed, RankingRowWithoutTabSeparatorThrows) {
  EXPECT_THROW((void)load_text(minimal_stream("0.5 RETIRED_UOPS", kGadgetHeader,
                                              kGadgetRow, kCoverGadget,
                                              kCoverEffect)),
               std::runtime_error);
}

TEST(SerializeMalformed, GadgetHeaderWithTrailingJunkThrows) {
  EXPECT_THROW(
      (void)load_text(minimal_stream(kRankingRow, "RETIRED_UOPS\t1\t3x\t4\t2.5",
                                     kGadgetRow, kCoverGadget, kCoverEffect)),
      std::runtime_error);
}

TEST(SerializeMalformed, GarbledGadgetRowThrows) {
  // Used to load as trigger uid 0.
  EXPECT_THROW((void)load_text(minimal_stream(kRankingRow, kGadgetHeader,
                                              "3\tfoo\t2.5", kCoverGadget,
                                              kCoverEffect)),
               std::runtime_error);
}

TEST(SerializeMalformed, GarbledCoverGadgetRowThrows) {
  // Used to load as trigger uid 2^32 - 4.
  EXPECT_THROW((void)load_text(minimal_stream(kRankingRow, kGadgetHeader,
                                              kGadgetRow, "3\t-4",
                                              kCoverEffect)),
               std::runtime_error);
}

TEST(SerializeMalformed, CoverEffectRowWithExtraFieldThrows) {
  EXPECT_THROW((void)load_text(minimal_stream(kRankingRow, kGadgetHeader,
                                              kGadgetRow, kCoverGadget,
                                              "2.5\t\tRETIRED_UOPS")),
               std::runtime_error);
}

// Gadget uids cross the warm-start trust boundary: each uid field must name
// a legal variant of the loading CPU's spec. One uid past the spec's end
// and one faulting variant per field.
struct BadUids {
  std::string out_of_range = std::to_string(amd_spec().total_count());
  std::string faulting = [] {
    for (const auto& v : amd_spec().variants()) {
      if (!v.legal()) return std::to_string(v.uid);
    }
    throw std::runtime_error("no faulting variant");
  }();
};

void expect_uid_rejected(const std::string& text, const std::string& uid) {
  try {
    (void)load_text(text);
    ADD_FAILURE() << "uid " << uid << " loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a legal variant"),
              std::string::npos)
        << e.what();
  }
}

TEST(SerializeMalformed, BestGadgetUidOutsideTheSpecThrows) {
  const BadUids bad;
  for (const std::string& uid : {bad.out_of_range, bad.faulting}) {
    expect_uid_rejected(minimal_stream(kRankingRow,
                                       "RETIRED_UOPS\t1\t" + uid + "\t4\t2.5",
                                       kGadgetRow, kCoverGadget, kCoverEffect),
                        uid);
    expect_uid_rejected(minimal_stream(kRankingRow,
                                       "RETIRED_UOPS\t1\t3\t" + uid + "\t2.5",
                                       kGadgetRow, kCoverGadget, kCoverEffect),
                        uid);
  }
}

TEST(SerializeMalformed, ConfirmedGadgetUidOutsideTheSpecThrows) {
  const BadUids bad;
  for (const std::string& uid : {bad.out_of_range, bad.faulting}) {
    expect_uid_rejected(minimal_stream(kRankingRow, kGadgetHeader,
                                       uid + "\t4\t2.5", kCoverGadget,
                                       kCoverEffect),
                        uid);
    expect_uid_rejected(minimal_stream(kRankingRow, kGadgetHeader,
                                       "3\t" + uid + "\t2.5", kCoverGadget,
                                       kCoverEffect),
                        uid);
  }
}

TEST(SerializeMalformed, CoverGadgetUidOutsideTheSpecThrows) {
  const BadUids bad;
  for (const std::string& uid : {bad.out_of_range, bad.faulting}) {
    expect_uid_rejected(minimal_stream(kRankingRow, kGadgetHeader, kGadgetRow,
                                       uid + "\t4", kCoverEffect),
                        uid);
    expect_uid_rejected(minimal_stream(kRankingRow, kGadgetHeader, kGadgetRow,
                                       "3\t" + uid, kCoverEffect),
                        uid);
  }
}

// std::from_chars accepts "nan", "inf" and "infinity"; a template crossing
// the warm-start boundary must not smuggle them into the ranking's sort
// order or the obfuscator's segment sizing.
const char* const kNonFinite[] = {"nan", "-nan", "inf", "-inf", "infinity",
                                  "NaN", "INF"};

TEST(SerializeMalformed, NonFiniteMutualInformationThrows) {
  for (const std::string bad : kNonFinite) {
    EXPECT_THROW((void)load_text(minimal_stream(bad + "\tRETIRED_UOPS",
                                                kGadgetHeader, kGadgetRow,
                                                kCoverGadget, kCoverEffect)),
                 std::runtime_error)
        << bad;
  }
}

TEST(SerializeMalformed, NonFiniteGadgetDeltaThrows) {
  for (const std::string bad : kNonFinite) {
    EXPECT_THROW((void)load_text(minimal_stream(
                     kRankingRow, "RETIRED_UOPS\t1\t3\t4\t" + bad,
                     kGadgetRow, kCoverGadget, kCoverEffect)),
                 std::runtime_error)
        << bad;
    EXPECT_THROW((void)load_text(minimal_stream(kRankingRow, kGadgetHeader,
                                                "3\t4\t" + bad, kCoverGadget,
                                                kCoverEffect)),
                 std::runtime_error)
        << bad;
  }
}

TEST(SerializeMalformed, NonFiniteCoverEffectDeltaThrows) {
  for (const std::string bad : kNonFinite) {
    EXPECT_THROW((void)load_text(minimal_stream(kRankingRow, kGadgetHeader,
                                                kGadgetRow, kCoverGadget,
                                                bad + "\tRETIRED_UOPS")),
                 std::runtime_error)
        << bad;
  }
}

std::string save_text(const OfflineResult& result,
                      const pmu::EventDatabase& db) {
  std::ostringstream os;
  save_offline_result(os, result, db);
  return os.str();
}

// Seeded mutations of a saved analysis: byte flips, truncations, duplicated
// lines, spliced chunks and numeric fields replaced by a non-finite token.
// Every mutant either throws or loads a result that re-saves and reloads
// to the same bytes; the non-finite mutants always throw.
TEST(SerializeMalformed, SeededMutationsLoadOrRejectAndRoundTrip) {
  auto& f = fixture();
  const pmu::EventDatabase& db = f.aegis.database();
  const isa::IsaSpecification& spec = f.aegis.specification();
  const std::string golden = save_text(f.result, db);

  // Byte offset and length of every whole tab/newline-delimited field that
  // is a plain number (counts, uids, MI values, deltas).
  std::vector<std::pair<std::size_t, std::size_t>> numbers;
  for (std::size_t start = 0; start < golden.size();) {
    std::size_t end = golden.find_first_of("\t\n", start);
    if (end == std::string::npos) end = golden.size();
    const std::string field = golden.substr(start, end - start);
    if (!field.empty() &&
        field.find_first_not_of("0123456789.e+-") == std::string::npos) {
      numbers.emplace_back(start, end - start);
    }
    start = end + 1;
  }
  ASSERT_GT(numbers.size(), 10u);

  util::Rng rng(0x5E71A1ULL);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  // Offset of the start of a random line.
  const auto line_start = [&](const std::string& bytes) {
    const std::size_t at = pick(bytes.size());
    const std::size_t nl = bytes.rfind('\n', at);
    return nl == std::string::npos ? std::size_t{0} : nl + 1;
  };
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = golden;
    const int kind = iter % 5;
    switch (kind) {
      case 0:  // byte flips anywhere
        for (int k = 0, n = 1 + static_cast<int>(pick(4)); k < n; ++k) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 + pick(255));
        }
        break;
      case 1:  // truncation
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 2: {  // duplicate a whole line at another line start
        const std::size_t from = line_start(bytes);
        const std::size_t to = bytes.find('\n', from);
        bytes.insert(line_start(bytes), bytes.substr(from, to - from + 1));
        break;
      }
      case 3: {  // splice: copy a chunk over another place, any alignment
        const std::size_t from = pick(bytes.size());
        const std::size_t len =
            1 + pick(std::min<std::size_t>(bytes.size() - from, 200));
        const std::string chunk = bytes.substr(from, len);
        bytes.replace(pick(bytes.size()), len, chunk);
        break;
      }
      default: {  // a numeric field becomes a non-finite token
        const auto [at, len] = numbers[pick(numbers.size())];
        bytes.replace(at, len, kNonFinite[pick(std::size(kNonFinite))]);
        break;
      }
    }
    std::istringstream is(bytes);
    OfflineResult result;
    try {
      result = load_offline_result(is, db, spec);
    } catch (const std::exception&) {
      ++rejected;
      continue;
    }
    EXPECT_NE(kind, 4) << "mutation " << iter << " loaded a non-finite value";
    ++loaded;
    const std::string resaved = save_text(result, db);
    std::istringstream again(resaved);
    EXPECT_EQ(save_text(load_offline_result(again, db, spec), db), resaved)
        << "mutation " << iter;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Serialize, FileRoundTrip) {
  auto& f = fixture();
  const std::string path = "/tmp/aegis_serialize_test.txt";
  save_offline_result(path, f.result, f.aegis.database());
  const OfflineResult loaded = load_offline_result(path, f.aegis.database(),
                                                   f.aegis.specification());
  EXPECT_EQ(loaded.cover.gadgets, f.result.cover.gadgets);
  EXPECT_THROW((void)load_offline_result("/nonexistent/path",
                                         f.aegis.database(),
                                         f.aegis.specification()),
               std::runtime_error);
}

// save_offline_result(path) goes through a temp file and a rename; these
// pin what a template cache directory looks like afterwards.
class SerializeAtomicSave : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("aegis_serialize_atomic_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> entries() const {
    std::vector<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      names.push_back(e.path().filename().string());
    }
    return names;
  }
  static std::string contents(const std::string& path) {
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  }

  std::filesystem::path dir_;
};

TEST_F(SerializeAtomicSave, OnlyTheTargetRemains) {
  auto& f = fixture();
  const std::string path = (dir_ / "template.txt").string();
  save_offline_result(path, f.result, f.aegis.database());
  EXPECT_EQ(entries(), std::vector<std::string>{"template.txt"});
  EXPECT_EQ(load_offline_result(path, f.aegis.database(),
                                f.aegis.specification()).cover.gadgets,
            f.result.cover.gadgets);
}

TEST_F(SerializeAtomicSave, OverwritesAnExistingFile) {
  auto& f = fixture();
  const std::string path = (dir_ / "template.txt").string();
  std::ofstream(path) << "stale contents from an older writer\n";
  save_offline_result(path, f.result, f.aegis.database());
  EXPECT_EQ(entries(), std::vector<std::string>{"template.txt"});
  std::ostringstream expected;
  save_offline_result(expected, f.result, f.aegis.database());
  EXPECT_EQ(contents(path), expected.str());
}

TEST_F(SerializeAtomicSave, FailedWriteLeavesThePreviousFileIntact) {
  auto& f = fixture();
  const std::string path = (dir_ / "template.txt").string();
  save_offline_result(path, f.result, f.aegis.database());
  const std::string before = contents(path);
  // An event id the database does not know makes serialization throw
  // after the header is already written.
  OfflineResult broken = f.result;
  broken.ranking.push_back(profiler::EventRank{0xFFFFFFFFu, 1.0});
  EXPECT_ANY_THROW(save_offline_result(path, broken, f.aegis.database()));
  EXPECT_EQ(contents(path), before);
  EXPECT_EQ(entries(), std::vector<std::string>{"template.txt"});
  // A directory that does not exist fails at open and creates nothing.
  EXPECT_THROW(save_offline_result((dir_ / "missing" / "t.txt").string(),
                                   f.result, f.aegis.database()),
               std::runtime_error);
  EXPECT_EQ(entries(), std::vector<std::string>{"template.txt"});
}

}  // namespace
}  // namespace aegis::core
