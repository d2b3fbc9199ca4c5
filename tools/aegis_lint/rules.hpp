// Rule catalog for aegis-lint. Each rule enforces one repo invariant the
// compiler cannot see (see DESIGN.md "Static analysis layer"):
//
//   banned-random      rand()/srand()/std::random_device/std engine types/
//                      time()-seeding. All randomness must flow through
//                      util::Rng so results are a pure function of config
//                      seeds.                     suppress: random-ok(...)
//   banned-clock       std::*_clock::now(). Wall-clock reads are allowed
//                      only at reporting-only sites (timing fields in
//                      result structs, latency stats) and in bench/, which
//                      is exempt wholesale.        suppress: clock-ok(...)
//   std-hash           std::hash<> — unstable across runs/platforms, so it
//                      can never feed a persisted value or cache key; use
//                      util/hash.hpp FNV-1a.    suppress: std-hash-ok(...)
//   unordered-iter     range-for over a std::unordered_{map,set} variable:
//                      iteration order is a hash-table artifact, so any
//                      result it feeds (ranking, serialization, greedy
//                      selection) loses determinism. suppress: ordered-ok(...)
//   noalloc            inside a `// aegis-lint: noalloc` function (or a
//                      noalloc-begin/noalloc-end region): no new/malloc/
//                      push_back/emplace*/resize/reserve/..., no by-value
//                      allocating container declarations.
//                                                  suppress: alloc-ok(...)
//   telemetry-handle   inside the same noalloc regions: no by-name
//                      flight-recorder lookup (`event_handle("...")`/
//                      `record_named("...")`) — a string key plus the
//                      registration lock. Resolve recorder handles once at
//                      construction and record through them
//                      (EventHandle::record is the sanctioned wait-free
//                      path).                suppress: telemetry-ok(...)
//   lock-order         mutexes declared `// aegis-lint: lock-level(N[,
//                      noblock])` must be acquired in strictly increasing
//                      level order when nested.      suppress: lock-ok(...)
//   blocking-in-lock   while holding a `noblock` mutex: no .join()/.push()/
//                      .pop()/.pop_batch() and no condition-variable wait
//                      (waiting on the held lock itself is allowed — the
//                      wait releases it).        suppress: blocking-ok(...)
//   backend-registry   EventDatabase::generate() outside src/pmu/backend/
//                      (which is exempt wholesale): every other component
//                      resolves its database through
//                      pmu::backend::backend_for(model), which builds
//                      each model's database once and shares it with the
//                      model's attack-event ids.
//                                               suppress: event-db-ok(...)
//
// Rules are lexical by design: they see one file (plus its companion
// header) and cannot follow calls across translation units. That buys a
// dependency-free analyzer that runs in milliseconds as a ctest gate; the
// sanitizer matrix covers the dynamic side.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace aegis::lint {

struct Finding {
  std::string rule;          // catalog name, e.g. "noalloc"
  int line = 0;              // 1-based line in the linted file
  std::string message;
  std::string suppress_tag;  // e.g. "alloc-ok"; empty = not suppressible
};

struct LintConfig {
  /// When false the banned-clock rule is skipped (the driver disables it
  /// for bench/, which exists to measure wall time).
  bool clock_rule = true;
  /// When false the backend-registry rule is skipped (the driver disables
  /// it for src/pmu/backend/, the one sanctioned generate() caller).
  bool backend_rule = true;
};

struct RuleInfo {
  std::string name;
  std::string suppress_tag;
  std::string summary;
};

/// Bumped whenever a rule's behavior changes; reported as the SARIF tool
/// version.
inline constexpr std::string_view kRuleSetVersion = "aegis-lint-2.2";

// ---------------------------------------------------------------------------
// Shared scan helpers. These power both the lexical rules in rules.cpp and
// the phase-1 effect extraction in parse.cpp, so the two phases can never
// disagree about what counts as an allocation, a noalloc region, or a
// declared lock level.

/// Half-open token-index range [begin, end).
struct TokenRegion {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Resolves `// aegis-lint: noalloc` (covers the next function body) and
/// noalloc-begin/noalloc-end pairs into token regions. Misplaced-marker
/// findings are appended to `out`.
std::vector<TokenRegion> noalloc_regions(const LexOutput& file,
                                         std::vector<Finding>& out);

struct MutexInfo {
  int level = 0;
  bool noblock = false;
};

/// Parses `lock-level(N[, noblock])` directives into `table`; the annotated
/// mutex is the last identifier on the directive's line or on the first
/// following line with tokens. Malformed directives are reported into
/// `out` when non-null.
void collect_lock_table(const LexOutput& lx,
                        std::map<std::string, MutexInfo>& table,
                        std::vector<Finding>* out);

/// When tokens[i] begins an allocation site (new, an allocating call like
/// push_back/resize, a by-value allocating container construction, a
/// stringstream), fills `what` with a short description and returns true.
bool alloc_site_at(const std::vector<Token>& t, std::size_t i,
                   std::string* what);

/// The rule catalog, for --list-rules and the docs.
std::vector<RuleInfo> rule_catalog();

/// Runs every rule over `file`. `companion` (may be null) contributes
/// declarations only — unordered-container variable names and lock-level
/// tables from a .cpp file's header — never findings.
std::vector<Finding> run_rules(const LexOutput& file, const LexOutput* companion,
                               const LintConfig& config);

}  // namespace aegis::lint
