#include "lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "effects.hpp"
#include "lexer.hpp"
#include "parse.hpp"

namespace aegis::lint {

namespace fs = std::filesystem;

namespace {

bool known_suppress_tag(const std::string& tag) {
  for (const RuleInfo& r : rule_catalog()) {
    if (r.suppress_tag == tag) return true;
  }
  return false;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  if (!is) throw std::runtime_error("aegis_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool has_prefix(const std::string& rel, const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// The sorted, deduplicated, exclude-filtered file list for a tree walk.
std::vector<fs::path> collect_files(const ProjectOptions& options,
                                    const fs::path& root) {
  std::vector<fs::path> files;
  for (const std::string& sub : options.paths) {
    const fs::path p = root / sub;
    if (fs::is_regular_file(p)) {
      if (lintable(p)) files.push_back(p);
      continue;
    }
    if (!fs::is_directory(p)) {
      throw std::runtime_error("aegis_lint: no such path: " + p.string());
    }
    for (const auto& entry : fs::recursive_directory_iterator(p)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<fs::path> kept;
  for (const fs::path& p : files) {
    if (!has_prefix(fs::relative(p, root).generic_string(), options.exclude)) {
      kept.push_back(p);
    }
  }
  return kept;
}

LintConfig config_for(const std::string& rel, const ProjectOptions& options) {
  LintConfig config;
  if (has_prefix(rel, options.clock_exempt)) config.clock_rule = false;
  if (has_prefix(rel, options.backend_exempt)) config.backend_rule = false;
  return config;
}

std::string companion_for(const fs::path& p) {
  if (p.extension() != ".cpp" && p.extension() != ".cc") return "";
  for (const char* ext : {".hpp", ".h"}) {
    fs::path header = p;
    header.replace_extension(ext);
    if (fs::is_regular_file(header)) return read_file(header);
  }
  return "";
}

/// True when directive `d` sits on the finding's line or the line above
/// and names the finding's suppression tag.
bool covers(const Directive& d, const Finding& f) {
  return d.tag == f.suppress_tag && (d.line == f.line || d.line == f.line - 1);
}

/// Filters `findings` against one file's suppression directives and sorts
/// the survivors by line. A directive without a reason suppresses nothing
/// and is a finding of its own: an unexplained exemption is exactly the
/// reviewer-attention problem the linter exists to remove. With
/// `report_stale`, a reasoned directive that matches no finding is
/// reported too; it earns its keep by matching any finding, including the
/// ones it suppresses.
std::vector<Finding> apply_suppressions(std::vector<Finding> findings,
                                        const std::vector<Directive>& directives,
                                        bool report_stale) {
  std::vector<Finding> kept;
  for (const Finding& f : findings) {
    bool suppressed = false;
    if (!f.suppress_tag.empty()) {
      for (const Directive& d : directives) {
        if (!d.arg.empty() && covers(d, f)) {
          suppressed = true;
          break;
        }
      }
    }
    if (!suppressed) kept.push_back(f);
  }
  for (const Directive& d : directives) {
    if (!known_suppress_tag(d.tag)) continue;
    if (d.arg.empty()) {
      kept.push_back(Finding{"suppression", d.line,
                             "suppression '" + d.tag +
                                 "' needs a reason: // aegis-lint: " + d.tag +
                                 "(<why this site is safe>)",
                             ""});
      continue;
    }
    if (!report_stale) continue;
    const bool used =
        std::any_of(findings.begin(), findings.end(),
                    [&](const Finding& f) { return covers(d, f); });
    if (!used) {
      kept.push_back(Finding{
          "stale-suppression", d.line,
          "suppression '" + d.tag + "(" + d.arg +
              ")' no longer silences any finding; delete it (or run "
              "--prune-suppressions --prune-apply)",
          ""});
    }
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return kept;
}

/// What phase 2 needs of one file besides its FileModel, which phase 1
/// hands straight to the project model.
struct FileAnalysis {
  std::string rel;                    // display path
  std::vector<Finding> raw;           // unfiltered lexical + parse findings
  std::vector<Directive> directives;  // for suppression + stale detection
};

}  // namespace

std::vector<Finding> lint_source(std::string_view source,
                                 std::string_view companion,
                                 const LintConfig& config) {
  const LexOutput file = lex(source);
  LexOutput comp;
  if (!companion.empty()) comp = lex(companion);
  return apply_suppressions(
      run_rules(file, companion.empty() ? nullptr : &comp, config),
      file.directives, false);
}

ProjectResult lint_project(const ProjectOptions& options) {
  const fs::path root =
      options.root.empty() ? fs::path(".") : fs::path(options.root);

  // Phase 1: per file, lexical rules and the FileModel.
  ProjectResult result;
  std::vector<FileAnalysis> analyses;
  for (const fs::path& p : collect_files(options, root)) {
    FileAnalysis a;
    a.rel = fs::relative(p, root).generic_string();
    // Companion header: declarations in x.hpp govern iteration/locking in
    // x.cpp.
    const std::string companion = companion_for(p);
    const LexOutput lx = lex(read_file(p));
    LexOutput comp;
    if (!companion.empty()) comp = lex(companion);
    const LexOutput* comp_ptr = companion.empty() ? nullptr : &comp;
    a.raw = run_rules(lx, comp_ptr, config_for(a.rel, options));
    a.directives = lx.directives;
    result.model.files.push_back(parse_file(a.rel, lx, comp_ptr, a.raw));
    analyses.push_back(std::move(a));
  }

  // Phase 2: run the interprocedural rules over the project model, then
  // filter everything per file against that file's suppressions.
  const CallGraph graph(result.model);
  std::map<std::string, std::vector<Finding>> graph_findings;
  for (FileFinding& f : run_graph_rules(graph)) {
    graph_findings[f.file].push_back(std::move(f.finding));
  }
  for (FileAnalysis& a : analyses) {
    std::vector<Finding> merged = std::move(a.raw);
    const auto gi = graph_findings.find(a.rel);
    if (gi != graph_findings.end()) {
      merged.insert(merged.end(), gi->second.begin(), gi->second.end());
    }
    for (Finding& f :
         apply_suppressions(std::move(merged), a.directives, true)) {
      result.findings.push_back(FileFinding{a.rel, std::move(f)});
    }
  }
  return result;
}

std::size_t prune_stale_suppressions(const std::string& root,
                                     const std::vector<FileFinding>& stale) {
  // Group line numbers per file, highest first, so earlier deletions never
  // shift the lines later ones target.
  std::map<std::string, std::vector<int>> by_file;
  for (const FileFinding& f : stale) {
    if (f.finding.rule == "stale-suppression") {
      by_file[f.file].push_back(f.finding.line);
    }
  }
  std::size_t removed = 0;
  for (auto& [rel, lines] : by_file) {
    const fs::path path = fs::path(root.empty() ? "." : root) / rel;
    std::string content = read_file(path);
    std::vector<std::string> file_lines;
    std::size_t start = 0;
    while (start <= content.size()) {
      const std::size_t nl = content.find('\n', start);
      if (nl == std::string::npos) {
        file_lines.push_back(content.substr(start));
        break;
      }
      file_lines.push_back(content.substr(start, nl - start));
      start = nl + 1;
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    bool changed = false;
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
      const std::size_t idx = static_cast<std::size_t>(*it) - 1;
      if (idx >= file_lines.size()) continue;
      std::string& line = file_lines[idx];
      const std::size_t comment = line.find("// aegis-lint:");
      if (comment == std::string::npos) continue;
      std::string head = line.substr(0, comment);
      while (!head.empty() && (head.back() == ' ' || head.back() == '\t')) {
        head.pop_back();
      }
      if (head.empty()) {
        file_lines.erase(file_lines.begin() + static_cast<long>(idx));
      } else {
        line = head;
      }
      ++removed;
      changed = true;
    }
    if (!changed) continue;
    std::string rebuilt;
    for (std::size_t i = 0; i < file_lines.size(); ++i) {
      rebuilt += file_lines[i];
      if (i + 1 < file_lines.size()) rebuilt += "\n";
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rebuilt;
  }
  return removed;
}

std::string format_finding(const FileFinding& f) {
  std::string s = f.file + ":" + std::to_string(f.finding.line) + ": [" +
                  f.finding.rule + "] " + f.finding.message;
  if (!f.finding.suppress_tag.empty()) {
    s += "\n    suppress with: // aegis-lint: " + f.finding.suppress_tag +
         "(<reason>)";
  }
  return s;
}

std::string format_suppression_hint(const FileFinding& f) {
  if (f.finding.suppress_tag.empty()) {
    return f.file + ":" + std::to_string(f.finding.line) +
           ": not suppressible; fix the finding: " + f.finding.message;
  }
  return f.file + ":" + std::to_string(f.finding.line) +
         ": // aegis-lint: " + f.finding.suppress_tag + "(<reason>)";
}

}  // namespace aegis::lint
