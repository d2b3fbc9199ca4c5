// Unit tests for aegis-lint: every rule is exercised with (a) a violating
// fixture that MUST produce a finding and (b) the same fixture with a
// reasoned suppression that MUST be clean. The negative fixtures double as
// the regression proof demanded by the repo's verification story: removing
// a hot-path annotation guard (e.g. reintroducing a push_back into a
// noalloc body) fails the gate.
#include <gtest/gtest.h>

#include <string>

#include "lint.hpp"

namespace aegis::lint {
namespace {

std::vector<Finding> run(std::string_view src, std::string_view companion = "") {
  return lint_source(src, companion, LintConfig{});
}

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
  for (const Finding& f : fs) {
    if (f.rule == rule) return true;
  }
  return false;
}

std::string messages(const std::vector<Finding>& fs) {
  std::string out;
  for (const Finding& f : fs) {
    out += std::to_string(f.line) + ": [" + f.rule + "] " + f.message + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lexer / directives

TEST(Lexer, StripsCommentsAndLiterals) {
  const auto fs = run(R"(
    // rand() in a comment is fine
    const char* s = "rand() in a string is fine";
    /* std::random_device in a block comment too */
  )");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(Lexer, ParsesDirectiveTagAndReason) {
  const LexOutput lx =
      lex("// aegis-lint: ordered-ok(keys sorted downstream (twice))\n");
  ASSERT_EQ(lx.directives.size(), 1u);
  EXPECT_EQ(lx.directives[0].tag, "ordered-ok");
  EXPECT_EQ(lx.directives[0].arg, "keys sorted downstream (twice)");
  EXPECT_EQ(lx.directives[0].line, 1);
}

TEST(Lexer, TracksLineNumbers) {
  const LexOutput lx = lex("int a;\nint b;\n\nint c;\n");
  ASSERT_EQ(lx.tokens.size(), 9u);
  EXPECT_EQ(lx.tokens[0].line, 1);
  EXPECT_EQ(lx.tokens[6].line, 4);  // "int" of line 4
}

TEST(Lexer, RawStringContentsAreStripped) {
  const auto fs = run(
      "const char* s = R\"(rand() std::random_device time(nullptr))\";\n"
      "const char* d = R\"x(a \")\" inside a custom delimiter)x\";\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(Lexer, PrefixedRawStringsAreRecognized) {
  // u8R/uR/UR/LR are raw-string spellings; FOOR"..." is an identifier
  // followed by an ordinary string.
  const auto fs = run(
      "auto a = u8R\"(rand())\";\n"
      "auto b = LR\"(std::random_device)\";\n"
      "auto c = uR\"(time(nullptr))\";\n"
      "auto d = UR\"(rand())\";\n"
      "int x = rand();\n");
  ASSERT_EQ(fs.size(), 1u) << messages(fs);
  EXPECT_EQ(fs[0].line, 5);
}

TEST(Lexer, DigitSeparatorsStayOneNumberToken) {
  const LexOutput lx = lex("int n = 1'000'000;\n");
  ASSERT_GE(lx.tokens.size(), 4u);
  EXPECT_EQ(lx.tokens[3].text, "1'000'000");
  // The apostrophe of a char literal must NOT be eaten as a separator.
  const auto fs = run("int n = 1'000'000; char c = 'r'; int y = rand();\n");
  ASSERT_EQ(fs.size(), 1u) << messages(fs);
  EXPECT_EQ(fs[0].rule, "banned-random");
}

TEST(Lexer, HexExponentSignsDoNotExtendTheNumber) {
  // 0x1E+2 is three tokens (E is a hex digit, not an exponent marker);
  // 0x1.8p+2 is one hex-float token.
  const LexOutput lx = lex("int a = 0x1E+2; double b = 0x1.8p+2;\n");
  ASSERT_GE(lx.tokens.size(), 11u);
  EXPECT_EQ(lx.tokens[3].text, "0x1E");
  EXPECT_EQ(lx.tokens[4].text, "+");
  EXPECT_EQ(lx.tokens[5].text, "2");
  EXPECT_EQ(lx.tokens[10].text, "0x1.8p+2");
}

TEST(Lexer, LineCommentBackslashSplicesTheNextLine) {
  // A line comment ending in a backslash continues onto the next physical
  // line, so the random_device there is still commented out — and line
  // numbers downstream must stay accurate.
  const auto fs = run(
      "// spliced comment \\\n"
      "std::random_device hidden;\n"
      "int x = rand();\n");
  ASSERT_EQ(fs.size(), 1u) << messages(fs);
  EXPECT_EQ(fs[0].rule, "banned-random");
  EXPECT_EQ(fs[0].line, 3);
}

// ---------------------------------------------------------------------------
// banned-random

TEST(BannedRandom, FlagsRandCall) {
  const auto fs = run("int x = rand() % 6;\n");
  EXPECT_TRUE(has_rule(fs, "banned-random")) << messages(fs);
}

TEST(BannedRandom, FlagsRandomDevice) {
  const auto fs = run("std::random_device rd;\n");
  EXPECT_TRUE(has_rule(fs, "banned-random")) << messages(fs);
}

TEST(BannedRandom, FlagsTimeSeeding) {
  const auto fs = run("rng.seed(time(nullptr));\n");
  EXPECT_TRUE(has_rule(fs, "banned-random")) << messages(fs);
}

TEST(BannedRandom, IgnoresMemberNamedRand) {
  const auto fs = run("double d = rng_.rand();\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BannedRandom, SuppressedWithReason) {
  const auto fs = run(
      "// aegis-lint: random-ok(entropy test fixture, result unused)\n"
      "std::random_device rd;\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BannedRandom, ReasonlessSuppressionIsItselfAFinding) {
  const auto fs = run(
      "// aegis-lint: random-ok()\n"
      "std::random_device rd;\n");
  EXPECT_TRUE(has_rule(fs, "banned-random")) << messages(fs);
  EXPECT_TRUE(has_rule(fs, "suppression")) << messages(fs);
}

// ---------------------------------------------------------------------------
// banned-clock

TEST(BannedClock, FlagsSteadyClockNow) {
  const auto fs = run("auto t0 = std::chrono::steady_clock::now();\n");
  EXPECT_TRUE(has_rule(fs, "banned-clock")) << messages(fs);
}

TEST(BannedClock, SuppressedAtReportingSite) {
  const auto fs = run(
      "auto t0 = std::chrono::steady_clock::now();  "
      "// aegis-lint: clock-ok(reporting-only: elapsed-seconds field)\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BannedClock, DisabledByConfigForBenchFiles) {
  LintConfig config;
  config.clock_rule = false;
  const auto fs = lint_source(
      "auto t0 = std::chrono::steady_clock::now();\n", "", config);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// std-hash

TEST(StdHash, FlagsStdHash) {
  const auto fs =
      run("std::size_t h = std::hash<std::string>{}(key_text);\n");
  EXPECT_TRUE(has_rule(fs, "std-hash")) << messages(fs);
}

TEST(StdHash, IgnoresOtherHashNames) {
  const auto fs = run("std::uint64_t h = util::fnv1a(key_text);\n"
                      "GadgetHash hasher;\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(StdHash, SuppressedWithReason) {
  const auto fs = run(
      "// aegis-lint: std-hash-ok(process-local bucket only, never persisted)\n"
      "std::size_t h = std::hash<int>{}(x);\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// unordered-iter

TEST(UnorderedIter, FlagsRangeForOverUnorderedMap) {
  const auto fs = run(
      "std::unordered_map<int, double> effect;\n"
      "void f() {\n"
      "  for (const auto& [k, v] : effect) sink(k, v);\n"
      "}\n");
  EXPECT_TRUE(has_rule(fs, "unordered-iter")) << messages(fs);
}

TEST(UnorderedIter, UsesCompanionHeaderDeclarations) {
  const auto fs = run(
      "void Machine::decay() {\n"
      "  for (auto& [id, st] : regions_) st.warmth *= 0.5;\n"
      "}\n",
      "class Machine {\n"
      "  std::unordered_map<int, Region> regions_;\n"
      "};\n");
  EXPECT_TRUE(has_rule(fs, "unordered-iter")) << messages(fs);
}

TEST(UnorderedIter, OrderedContainersAreFine) {
  const auto fs = run(
      "std::map<int, double> effect;\n"
      "void f() {\n"
      "  for (const auto& [k, v] : effect) sink(k, v);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(UnorderedIter, LookupsAreFine) {
  const auto fs = run(
      "std::unordered_map<int, double> effect;\n"
      "double g(int k) { return effect.find(k)->second; }\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(UnorderedIter, SuppressedWithReason) {
  const auto fs = run(
      "std::unordered_set<int> universe;\n"
      "void f() {\n"
      "  // aegis-lint: ordered-ok(result is sorted before use)\n"
      "  for (int e : universe) out.push_back(e);\n"
      "  std::sort(out.begin(), out.end());\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// noalloc

// The acceptance-criteria fixture: a GadgetRunner::execute_once-shaped
// function whose noalloc guard catches a reintroduced push_back.
TEST(NoAlloc, ReintroducedPushBackFailsTheGate) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "std::span<const double> GadgetRunner::execute_once(\n"
      "    std::span<const std::uint32_t> uids, double unroll) {\n"
      "  deltas_.push_back(counters_.read_raw(ids[0]));\n"
      "  return std::span<const double>(deltas_.data(), 1);\n"
      "}\n");
  EXPECT_TRUE(has_rule(fs, "noalloc")) << messages(fs);
}

TEST(NoAlloc, CleanHotPathPasses) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "void CounterRegisterFile::accumulate_batched(const Stats& stats) {\n"
      "  double features[kDim];\n"
      "  flatten_stats(stats, features);\n"
      "  for (std::size_t i = 0; i < n; ++i) slots_[i].count += features[i];\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(NoAlloc, FlagsNewAndByValueVector) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "void f() {\n"
      "  auto* p = new double[8];\n"
      "  std::vector<double> tmp(8);\n"
      "}\n");
  ASSERT_EQ(fs.size(), 2u) << messages(fs);
  EXPECT_EQ(fs[0].rule, "noalloc");
  EXPECT_EQ(fs[1].rule, "noalloc");
}

TEST(NoAlloc, ReferencesToContainersAreFine) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "void f() {\n"
      "  const std::vector<std::uint32_t>& ids = counters_.programmed();\n"
      "  use(ids);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(NoAlloc, RegionMarkersBoundTheCheck) {
  const auto fs = run(
      "void f() {\n"
      "  setup.push_back(1);  // before the region: fine\n"
      "  // aegis-lint: noalloc-begin\n"
      "  hot_loop();\n"
      "  // aegis-lint: noalloc-end\n"
      "  teardown.push_back(2);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);

  const auto fs2 = run(
      "void f() {\n"
      "  // aegis-lint: noalloc-begin\n"
      "  scratch.push_back(1);\n"
      "  // aegis-lint: noalloc-end\n"
      "}\n");
  EXPECT_TRUE(has_rule(fs2, "noalloc")) << messages(fs2);
}

TEST(NoAlloc, SuppressedWithReason) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "void measure(const Params& params) {\n"
      "  deltas.clear();\n"
      "  // aegis-lint: alloc-ok(thread_local scratch keeps its capacity)\n"
      "  deltas.reserve(params.repeats);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(NoAlloc, OutsideRegionIsUnchecked) {
  const auto fs = run("void cold() { cache_.emplace(uid, block); }\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(NoAlloc, DeletingTheGuardAlsoRemovesTheCheck) {
  // Companion proof for the acceptance fixture: the SAME body without the
  // marker is not checked — the guard comment itself carries the invariant,
  // which is why the tree-wide gate must stay green.
  const auto fs = run(
      "std::span<const double> GadgetRunner::execute_once(\n"
      "    std::span<const std::uint32_t> uids, double unroll) {\n"
      "  deltas_.push_back(counters_.read_raw(ids[0]));\n"
      "  return std::span<const double>(deltas_.data(), 1);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// lock-order

const char* kLockDecls =
    "class Service {\n"
    "  std::mutex cache_mu_;  // aegis-lint: lock-level(10, noblock)\n"
    "  std::mutex entry_mu_;  // aegis-lint: lock-level(20)\n"
    "};\n";

TEST(LockOrder, FlagsOutOfOrderNesting) {
  const std::string src = std::string(kLockDecls) +
      "void Service::bad() {\n"
      "  std::lock_guard a(entry_mu_);\n"
      "  std::lock_guard b(cache_mu_);\n"  // 10 after 20: out of order
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(has_rule(fs, "lock-order")) << messages(fs);
}

TEST(LockOrder, InOrderNestingIsFine) {
  const std::string src = std::string(kLockDecls) +
      "void Service::good() {\n"
      "  std::lock_guard a(cache_mu_);\n"
      "  std::lock_guard b(entry_mu_);\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LockOrder, SequentialScopesDoNotNest) {
  const std::string src = std::string(kLockDecls) +
      "void Service::seq() {\n"
      "  { std::lock_guard a(entry_mu_); touch(); }\n"
      "  { std::lock_guard b(cache_mu_); touch(); }\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LockOrder, ScopedLockMultiAcquisitionIsAtomic) {
  const auto fs = run(
      "struct Pool { std::mutex mu;  // aegis-lint: lock-level(50)\n"
      "};\n"
      "void steal(Shard& v, Shard& own) {\n"
      "  std::scoped_lock lock(v.mu, own.mu);\n"  // std::lock orders safely
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(LockOrder, CompanionHeaderCarriesTheTable) {
  const auto fs = run(
      "void Service::bad() {\n"
      "  std::lock_guard a(entry_mu_);\n"
      "  std::lock_guard b(cache_mu_);\n"
      "}\n",
      kLockDecls);
  EXPECT_TRUE(has_rule(fs, "lock-order")) << messages(fs);
}

TEST(LockOrder, SuppressedWithReason) {
  const std::string src = std::string(kLockDecls) +
      "void Service::shutdown_path() {\n"
      "  std::lock_guard a(entry_mu_);\n"
      "  // aegis-lint: lock-ok(shutdown: single-threaded by then)\n"
      "  std::lock_guard b(cache_mu_);\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// blocking-in-lock

TEST(BlockingInLock, FlagsQueuePushUnderNoblockMutex) {
  const std::string src = std::string(kLockDecls) +
      "bool Service::submit(Item item) {\n"
      "  std::lock_guard lock(cache_mu_);\n"
      "  return queue_.push(std::move(item));\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(has_rule(fs, "blocking-in-lock")) << messages(fs);
}

TEST(BlockingInLock, PushOutsideTheLockIsFine) {
  const std::string src = std::string(kLockDecls) +
      "bool Service::submit(Item item) {\n"
      "  { std::lock_guard lock(cache_mu_); ++pending_; }\n"
      "  return queue_.push(std::move(item));\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BlockingInLock, OwnLockConditionWaitIsAllowed) {
  // The canonical cv pattern: wait() releases the very lock it is given.
  const std::string src = std::string(kLockDecls) +
      "void Service::drain() {\n"
      "  std::unique_lock lock(cache_mu_);\n"
      "  idle_cv_.wait(lock, [&] { return pending_ == 0; });\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BlockingInLock, ForeignWaitUnderNoblockMutexIsFlagged) {
  const std::string src = std::string(kLockDecls) +
      "void Service::bad_wait() {\n"
      "  std::lock_guard g(cache_mu_);\n"
      "  std::unique_lock lock(entry_mu_);\n"
      "  ready_cv_.wait(lock, [&] { return ready_; });\n"  // cache_mu_ held!
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(has_rule(fs, "blocking-in-lock")) << messages(fs);
}

TEST(BlockingInLock, JoinUnderNoblockMutexIsFlagged) {
  const std::string src = std::string(kLockDecls) +
      "void Service::stop() {\n"
      "  std::lock_guard lock(cache_mu_);\n"
      "  worker_.join();\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(has_rule(fs, "blocking-in-lock")) << messages(fs);
}

TEST(BlockingInLock, SuppressedWithReason) {
  const std::string src = std::string(kLockDecls) +
      "void Service::stop() {\n"
      "  std::lock_guard lock(cache_mu_);\n"
      "  // aegis-lint: blocking-ok(worker already signalled; join is bounded)\n"
      "  worker_.join();\n"
      "}\n";
  const auto fs = run(src);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// telemetry-handle

TEST(TelemetryHandle, ByNameLookupInNoallocRegionFailsTheGate) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "std::span<const double> GadgetRunner::execute_once(\n"
      "    std::span<const std::uint32_t> uids, double unroll) {\n"
      "  telemetry::Registry::global().recorder().record_named(\n"
      "      \"gadget.exec\", telemetry::WideEventType::kHotExec, t);\n"
      "  return read_all(uids);\n"
      "}\n");
  EXPECT_TRUE(has_rule(fs, "telemetry-handle")) << messages(fs);
}

TEST(TelemetryHandle, BothLookupKindsAreFlagged) {
  const auto fs = run(
      "// aegis-lint: noalloc-begin\n"
      "reg.recorder().event_handle(\"a.step\", kind).record(t);\n"
      "reg.recorder().record_named(\"a.step\", kind, t);\n"
      "// aegis-lint: noalloc-end\n");
  std::size_t count = 0;
  for (const Finding& f : fs) {
    if (f.rule == "telemetry-handle") ++count;
  }
  EXPECT_EQ(count, 2u) << messages(fs);
}

TEST(TelemetryHandle, RecordingThroughAResolvedHandleIsFine) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "void NoiseInjector::inject(double reps) {\n"
      "  inject_event_.record(window_, reps_bits(reps));\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(TelemetryHandle, RegistrationOutsideTheRegionIsUnchecked) {
  // The constructor (handle resolution site) is not a noalloc region, so its
  // by-name lookup is not flagged; the region after it holds no lookup.
  const auto fs = run(
      "GadgetRunner::GadgetRunner()\n"
      "    : exec_event_(telemetry::Registry::global().recorder().event_handle(\n"
      "          \"gadget.exec\", telemetry::WideEventType::kHotExec)) {}\n"
      "// aegis-lint: noalloc\n"
      "void GadgetRunner::execute_once() { ++exec_count_; }\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(TelemetryHandle, RecordingThroughAResolvedEventHandleIsFine) {
  // The required flight-recorder idiom: event_handle() at construction,
  // wait-free EventHandle::record through the member handle on the hot path.
  const auto fs = run(
      "GadgetRunner::GadgetRunner()\n"
      "    : exec_event_(telemetry::Registry::global().recorder().event_handle(\n"
      "          \"gadget.exec\", telemetry::WideEventType::kHotExec)) {}\n"
      "// aegis-lint: noalloc\n"
      "void GadgetRunner::execute_once() {\n"
      "  exec_event_.record(exec_count_, uids, unroll);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(TelemetryHandle, FlightRecorderByNameLookupInNoallocRegionIsFlagged) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "std::span<const double> GadgetRunner::execute_once(\n"
      "    std::span<const std::uint32_t> uids, double unroll) {\n"
      "  telemetry::Registry::global().recorder().event_handle(\n"
      "      \"gadget.exec\", telemetry::WideEventType::kHotExec);\n"
      "  return read_all(uids);\n"
      "}\n");
  EXPECT_TRUE(has_rule(fs, "telemetry-handle")) << messages(fs);
}

TEST(TelemetryHandle, FlightRecorderByNameRecordInNoallocRegionIsFlagged) {
  const auto fs = run(
      "// aegis-lint: noalloc-begin\n"
      "recorder.record_named(\"gadget.exec\", t, a, b);\n"
      "// aegis-lint: noalloc-end\n");
  EXPECT_TRUE(has_rule(fs, "telemetry-handle")) << messages(fs);
}

TEST(TelemetryHandle, SuppressedWithReason) {
  const auto fs = run(
      "// aegis-lint: noalloc\n"
      "void f() {\n"
      "  // aegis-lint: telemetry-ok(cold slow-path branch, measured)\n"
      "  reg.recorder().record_named(\"a.step\", kind, t);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// backend-registry

TEST(BackendFor, FlagsDirectGenerateCall) {
  const auto fs =
      run("const auto db = pmu::EventDatabase::generate(model);\n");
  EXPECT_TRUE(has_rule(fs, "backend-registry")) << messages(fs);
}

TEST(BackendFor, ResolvingThroughTheBackendIsFine) {
  const auto fs = run(
      "const auto& db = pmu::backend::backend_for(model).database();\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BackendFor, OtherGenerateMethodsAreFine) {
  const auto fs = run("const auto plan = Scheduler::generate(slots);\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BackendFor, SuppressedWithReason) {
  const auto fs = run(
      "// aegis-lint: event-db-ok(fixture compares raw database to the "
      "backend view)\n"
      "const auto db = pmu::EventDatabase::generate(model);\n");
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

TEST(BackendFor, ReasonlessSuppressionIsItselfAFinding) {
  const auto fs = run(
      "// aegis-lint: event-db-ok()\n"
      "const auto db = pmu::EventDatabase::generate(model);\n");
  EXPECT_TRUE(has_rule(fs, "backend-registry")) << messages(fs);
  EXPECT_TRUE(has_rule(fs, "suppression")) << messages(fs);
}

TEST(BackendFor, DisabledByConfigForTheBackendLayer) {
  LintConfig config;
  config.backend_rule = false;
  const auto fs = lint_source(
      "db_ = pmu::EventDatabase::generate(model);\n", "", config);
  EXPECT_TRUE(fs.empty()) << messages(fs);
}

// ---------------------------------------------------------------------------
// Catalog sanity

TEST(Catalog, EverySuppressibleRuleIsListed) {
  const auto catalog = rule_catalog();
  EXPECT_GE(catalog.size(), 10u);
  for (const RuleInfo& r : catalog) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.suppress_tag.empty());
    EXPECT_FALSE(r.summary.empty());
  }
}

}  // namespace
}  // namespace aegis::lint
