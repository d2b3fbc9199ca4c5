// Lint driver: suppression filtering and the filesystem walk.
//
// Suppression syntax (one per comment, same line as the finding or the
// line immediately above it):
//     // aegis-lint: <tag>-ok(<reason>)
// The reason is mandatory — an empty reason does not suppress and is
// itself reported, so every silenced finding documents WHY the invariant
// holds at that site.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "graph.hpp"
#include "rules.hpp"

namespace aegis::lint {

struct FileFinding {
  std::string file;  // display path (relative to the lint root)
  Finding finding;
};

/// Lints one in-memory source. `companion` contributes declarations
/// (unordered-container names, lock-level tables) — pass "" when there is
/// none. Returns only UNSUPPRESSED findings (plus findings about invalid
/// suppressions/directives).
std::vector<Finding> lint_source(std::string_view source,
                                 std::string_view companion,
                                 const LintConfig& config);

// ---------------------------------------------------------------------------
// Two-phase project analysis. Phase 1 lexes each file, runs the lexical
// rules over it and extracts its FileModel; phase 2 runs the
// interprocedural rules from effects.cpp over the project-wide call graph
// and filters every finding against its file's suppressions.

struct ProjectOptions {
  std::string root;                 // absolute or cwd-relative repo root
  std::vector<std::string> paths;   // subtrees/files relative to root
  /// Path prefixes (relative, '/'-terminated) where banned-clock is off:
  /// benchmarks exist to measure wall time.
  std::vector<std::string> clock_exempt = {"bench/"};
  /// Path prefixes where backend-registry is off: the backend layer itself
  /// is the one sanctioned EventDatabase::generate() caller.
  std::vector<std::string> backend_exempt = {"src/pmu/backend/"};
  /// Path prefixes skipped entirely. The default keeps the linter's own
  /// negative fixtures (code that EXISTS to trigger findings) out of the
  /// gate while `tools/` as a whole is linted.
  std::vector<std::string> exclude = {"tools/aegis_lint/testdata/"};
};

struct ProjectResult {
  /// All surviving findings — lexical, parse diagnostics, interprocedural,
  /// and stale-suppression warnings — suppression-filtered and sorted by
  /// (file, line). Stale-suppression entries are warnings: the CLI exit
  /// code ignores them unless --stale-as-error.
  std::vector<FileFinding> findings;
  /// The phase-1 models, for --graph-dump and the RNG manifest.
  ProjectModel model;
};

/// Lints every .cpp/.hpp/.h/.cc under the requested subtrees, in sorted
/// path order. A .cpp file's same-stem .hpp/.h neighbor is its companion.
/// Throws std::runtime_error when a requested path does not exist.
ProjectResult lint_project(const ProjectOptions& options);

/// Deletes the stale suppression comments `stale` points at (rule
/// "stale-suppression" findings from lint_project). Rewrites each file in
/// place: the `// aegis-lint: ...` comment is cut from its line, and the
/// line itself is dropped when nothing but whitespace remains. Returns the
/// number of comments removed.
std::size_t prune_stale_suppressions(const std::string& root,
                                     const std::vector<FileFinding>& stale);

/// Renders one finding as "file:line: [rule] message".
std::string format_finding(const FileFinding& f);

/// The `--fix-suppressions` view: the exact comment to paste for each
/// finding that supports suppression.
std::string format_suppression_hint(const FileFinding& f);

}  // namespace aegis::lint
