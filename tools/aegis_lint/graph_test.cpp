// Phase-2 tests over the committed fixture project in testdata/fixture/:
// the golden-pinned call-graph dump, overload/qualifier resolution, the
// three interprocedural rules (including the seeded one-call-deep
// allocation the lexical pass provably misses) and the RNG manifest pin.
// In-memory models (lex + parse_file over string fixtures) cover the cases
// that need two variants of the same code, e.g. "reordering two draws
// changes the manifest digest".
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "effects.hpp"
#include "graph.hpp"
#include "lint.hpp"
#include "parse.hpp"

namespace aegis::lint {
namespace {

namespace fs = std::filesystem;

ProjectOptions fixture_options() {
  ProjectOptions o;
  o.root = AEGIS_LINT_TESTDATA;
  o.paths = {"fixture"};
  return o;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string render(const ProjectResult& r) {
  std::string out;
  for (const FileFinding& f : r.findings) out += format_finding(f) + '\n';
  return out;
}

const FileFinding* find_rule(const std::vector<FileFinding>& fs,
                             std::string_view rule) {
  for (const FileFinding& f : fs) {
    if (f.finding.rule == rule) return &f;
  }
  return nullptr;
}

/// Builds a ProjectModel straight from in-memory sources (no filesystem),
/// for tests that need two variants of the same code.
ProjectModel model_from(
    const std::vector<std::pair<std::string, std::string>>& files) {
  ProjectModel m;
  std::vector<Finding> diags;
  for (const auto& [path, src] : files) {
    const LexOutput lx = lex(src);
    m.files.push_back(parse_file(path, lx, nullptr, diags));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Golden graph dump + resolution

TEST(GoldenGraph, DumpMatchesPinnedFixture) {
  const ProjectResult r = lint_project(fixture_options());
  const CallGraph graph(r.model);
  const std::string golden =
      read_file(fs::path(AEGIS_LINT_TESTDATA) / "golden_graph.txt");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(graph.dump(), golden)
      << "call-graph shape changed; review and regenerate with\n"
         "  aegis_lint --root tools/aegis_lint/testdata "
         "--graph-dump tools/aegis_lint/testdata/golden_graph.txt fixture";
}

TEST(GoldenGraph, OverloadsMergeIntoOneNameGroup) {
  const ProjectResult r = lint_project(fixture_options());
  const CallGraph graph(r.model);
  CallSite call;
  call.callee = "scale";
  EXPECT_EQ(graph.resolve(call).size(), 2u);
}

TEST(GoldenGraph, WrittenQualifierNarrowsTheGroup) {
  const ProjectResult r = lint_project(fixture_options());
  const CallGraph graph(r.model);
  CallSite unqualified;
  unqualified.callee = "reset";
  EXPECT_EQ(graph.resolve(unqualified).size(), 2u);

  CallSite qualified;
  qualified.callee = "reset";
  qualified.qualifier = "Telemetry";
  const auto targets = graph.resolve(qualified);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(graph.fn(targets[0]).qualified, "fx::Telemetry::reset");
}

TEST(GoldenGraph, MemberReceiverNamesNeverNarrow) {
  const ProjectResult r = lint_project(fixture_options());
  const CallGraph graph(r.model);
  // `telemetry_.reset()` carries a variable name, not a type — resolution
  // must keep the whole name group rather than suffix-match "telemetry_".
  CallSite member;
  member.callee = "reset";
  member.qualifier = "telemetry_";
  member.member = true;
  EXPECT_EQ(graph.resolve(member).size(), 2u);
}

TEST(GoldenGraph, TemplateDefinitionsResolveByName) {
  const ProjectResult r = lint_project(fixture_options());
  const CallGraph graph(r.model);
  CallSite call;
  call.callee = "clamp_to";
  const auto targets = graph.resolve(call);
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(graph.fn(targets[0]).qualified, "fx::clamp_to");
}

// ---------------------------------------------------------------------------
// Interprocedural rules over the fixture

TEST(NoallocTransitive, LexicalPassMissesTheSeededAllocation) {
  // The per-file lexical pass sees only a call token inside tick's noalloc
  // region — the push_back sits one frame down in refill().
  const fs::path dir = fs::path(AEGIS_LINT_TESTDATA) / "fixture";
  const std::string source = read_file(dir / "engine.cpp");
  ASSERT_FALSE(source.empty());
  std::vector<FileFinding> lexical;
  for (Finding& f :
       lint_source(source, read_file(dir / "engine.hpp"), LintConfig{})) {
    lexical.push_back(FileFinding{"fixture/engine.cpp", std::move(f)});
  }
  EXPECT_EQ(find_rule(lexical, "noalloc"), nullptr);
  EXPECT_EQ(find_rule(lexical, "noalloc-transitive"), nullptr);
}

TEST(NoallocTransitive, GraphPassCatchesTheSeededAllocation) {
  const ProjectResult r = lint_project(fixture_options());
  const FileFinding* f = find_rule(r.findings, "noalloc-transitive");
  ASSERT_NE(f, nullptr) << render(r);
  EXPECT_EQ(f->file, "fixture/engine.cpp");
  EXPECT_NE(f->finding.message.find("refill"), std::string::npos);
  EXPECT_NE(f->finding.message.find("push_back"), std::string::npos);
}

TEST(TelemetryHandleFixture, RecorderByNameSitesFlaggedHandleIdiomClean) {
  // Committed fixture pair in testdata/telemetry_handle/ (its own
  // directory: fixture/ is pinned by golden_graph.txt and must not grow).
  // recorder_bad.cpp resolves and records by name inside a noalloc region
  // (two findings); recorder_ok.cpp uses the ctor-resolve + wait-free
  // record idiom (zero findings).
  ProjectOptions o;
  o.root = AEGIS_LINT_TESTDATA;
  o.paths = {"telemetry_handle"};
  const ProjectResult r = lint_project(o);
  std::size_t bad = 0;
  for (const FileFinding& f : r.findings) {
    EXPECT_EQ(f.finding.rule, "telemetry-handle") << render(r);
    EXPECT_EQ(f.file, "telemetry_handle/recorder_bad.cpp") << render(r);
    ++bad;
  }
  EXPECT_EQ(bad, 2u) << render(r);
}

TEST(RngStream, UnannotatedDrawIsFlaggedAnnotatedRootIsClean) {
  const ProjectResult r = lint_project(fixture_options());
  const FileFinding* f = find_rule(r.findings, "rng-stream");
  ASSERT_NE(f, nullptr) << render(r);
  EXPECT_NE(f->finding.message.find("fx::Engine::sample"), std::string::npos);
  // tick draws AND forwards but is annotated — exactly one finding total.
  std::size_t count = 0;
  for (const FileFinding& ff : r.findings) {
    if (ff.finding.rule == "rng-stream") ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(LockOrderGlobal, CrossTuInversionIsReported) {
  const ProjectResult r = lint_project(fixture_options());
  const FileFinding* f = find_rule(r.findings, "lock-order-global");
  ASSERT_NE(f, nullptr) << render(r);
  EXPECT_EQ(f->file, "fixture/governor.cpp");
  EXPECT_NE(f->finding.message.find("level 30"), std::string::npos);
  EXPECT_NE(f->finding.message.find("level 10"), std::string::npos);
  EXPECT_NE(f->finding.message.find("fx::Telemetry::record"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// RNG manifest pinning

TEST(Manifest, MatchesPinnedGolden) {
  const ProjectResult r = lint_project(fixture_options());
  const std::string golden =
      read_file(fs::path(AEGIS_LINT_TESTDATA) / "golden_manifest.md");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(rng_manifest(CallGraph(r.model)), golden)
      << "manifest shape changed; review and regenerate with\n"
         "  aegis_lint --root tools/aegis_lint/testdata "
         "--write-rng-manifest tools/aegis_lint/testdata/golden_manifest.md "
         "fixture";
}

TEST(Manifest, ReorderingTwoDrawsChangesTheDigest) {
  const std::string draws_ab =
      "// aegis-lint: noalloc\n"
      "// aegis-rng: stream(pair)\n"
      "double root(util::Rng& rng) {\n"
      "  const double a = rng.laplace(0.0, 1.0);\n"
      "  const double b = rng.uniform(0.0, 1.0);\n"
      "  return a + b;\n"
      "}\n";
  const std::string draws_ba =
      "// aegis-lint: noalloc\n"
      "// aegis-rng: stream(pair)\n"
      "double root(util::Rng& rng) {\n"
      "  const double b = rng.uniform(0.0, 1.0);\n"
      "  const double a = rng.laplace(0.0, 1.0);\n"
      "  return a + b;\n"
      "}\n";
  const ProjectModel ab = model_from({{"a.cpp", draws_ab}});
  const ProjectModel ba = model_from({{"a.cpp", draws_ba}});
  const std::string digest_ab =
      manifest_digest_line(rng_manifest(CallGraph(ab)));
  const std::string digest_ba =
      manifest_digest_line(rng_manifest(CallGraph(ba)));
  EXPECT_FALSE(digest_ab.empty());
  EXPECT_FALSE(digest_ba.empty());
  EXPECT_NE(digest_ab, digest_ba);
}

TEST(Manifest, UnrelatedEditsLeaveTheDigestAlone) {
  const std::string before =
      "// aegis-lint: noalloc\n"
      "// aegis-rng: stream(solo)\n"
      "double root(util::Rng& rng) { return rng.laplace(0.0, 1.0); }\n";
  const std::string after =
      "int unrelated(int v) { return v + 1; }\n"
      "// aegis-lint: noalloc\n"
      "// aegis-rng: stream(solo)\n"
      "double root(util::Rng& rng) { return rng.laplace(0.0, 1.0); }\n";
  const ProjectModel a = model_from({{"a.cpp", before}});
  const ProjectModel b = model_from({{"a.cpp", after}});
  EXPECT_EQ(manifest_digest_line(rng_manifest(CallGraph(a))),
            manifest_digest_line(rng_manifest(CallGraph(b))));
}

// ---------------------------------------------------------------------------
// In-memory effect-propagation corners

TEST(Effects, AmortizedAllocCalleeDoesNotPropagate) {
  const std::string src =
      "// aegis-lint: noalloc\n"
      "void hot() { grow(); }\n"
      "// aegis-lint: amortized-alloc(fills the pool once, first call only)\n"
      "void grow() { pool.push_back(1); }\n";
  const ProjectModel m = model_from({{"a.cpp", src}});
  const auto findings = run_graph_rules(CallGraph(m));
  EXPECT_EQ(find_rule(findings, "noalloc-transitive"), nullptr);
}

TEST(Effects, RemovingTheAmortizedAnnotationRestoresTheFinding) {
  const std::string src =
      "// aegis-lint: noalloc\n"
      "void hot() { grow(); }\n"
      "void grow() { pool.push_back(1); }\n";
  const ProjectModel m = model_from({{"a.cpp", src}});
  const auto findings = run_graph_rules(CallGraph(m));
  EXPECT_NE(find_rule(findings, "noalloc-transitive"), nullptr);
}

TEST(Effects, MutualRecursionTerminatesWithoutFindings) {
  const std::string src =
      "// aegis-lint: noalloc\n"
      "void ping(int n) { if (n > 0) pong(n - 1); }\n"
      "// aegis-lint: noalloc\n"
      "void pong(int n) { if (n > 0) ping(n - 1); }\n";
  const ProjectModel m = model_from({{"a.cpp", src}});
  const auto findings = run_graph_rules(CallGraph(m));
  EXPECT_EQ(find_rule(findings, "noalloc-transitive"), nullptr);
}

TEST(Effects, AllocThroughRecursiveCycleIsStillSeen) {
  const std::string src =
      "// aegis-lint: noalloc\n"
      "void hot(int n) { step(n); }\n"
      "void step(int n) { if (n > 0) step(n - 1); buf.push_back(n); }\n";
  const ProjectModel m = model_from({{"a.cpp", src}});
  const auto findings = run_graph_rules(CallGraph(m));
  EXPECT_NE(find_rule(findings, "noalloc-transitive"), nullptr);
}

}  // namespace
}  // namespace aegis::lint
