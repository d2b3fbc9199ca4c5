// aegis_lint CLI — the repo's invariant gate.
//
//   aegis_lint --root <repo> [paths...]     analyze (default: src bench
//                                           examples tools)
//   aegis_lint --list-rules                 print the rule catalog
//   aegis_lint ... --fix-suppressions       print ready-to-paste suppression
//                                           comments for every finding
//   aegis_lint ... --sarif FILE             also write a SARIF 2.1.0 log
//                                           ("-" = stdout)
//   aegis_lint ... --graph-dump FILE        dump the call graph ("-" = stdout)
//   aegis_lint ... --write-rng-manifest F   regenerate RNG_STREAMS.md
//   aegis_lint ... --check-rng-manifest F   fail unless F matches the code
//   aegis_lint ... --prune-suppressions     list stale suppressions only
//   aegis_lint ... --prune-apply            ...and delete them in place
//   aegis_lint ... --stale-as-error         stale suppressions fail the run
//
// Exit status: 0 clean, 1 unsuppressed findings (stale suppressions count
// only under --stale-as-error), 2 usage or I/O error.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "effects.hpp"
#include "lint.hpp"
#include "sarif.hpp"

namespace {

bool write_text(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

std::string read_text(const std::string& path, bool& ok) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  ok = true;
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aegis::lint;

  ProjectOptions options;
  options.root.push_back('.');  // `= "."` trips a GCC 12 -Wrestrict false positive
  bool fix_suppressions = false;
  bool list_rules = false;
  bool prune = false;
  bool prune_apply = false;
  bool stale_as_error = false;
  std::string sarif_path;
  std::string graph_dump_path;
  std::string write_manifest_path;
  std::string check_manifest_path;
  std::vector<std::string> paths;

  auto need_value = [&](int& i, const char* flag, std::string& out) {
    if (i + 1 >= argc) {
      std::cerr << "aegis_lint: " << flag << " needs a value\n";
      return false;
    }
    out = argv[++i];
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (!need_value(i, "--root", options.root)) return 2;
    } else if (arg == "--sarif") {
      if (!need_value(i, "--sarif", sarif_path)) return 2;
    } else if (arg == "--graph-dump") {
      if (!need_value(i, "--graph-dump", graph_dump_path)) return 2;
    } else if (arg == "--write-rng-manifest") {
      if (!need_value(i, "--write-rng-manifest", write_manifest_path)) return 2;
    } else if (arg == "--check-rng-manifest") {
      if (!need_value(i, "--check-rng-manifest", check_manifest_path)) return 2;
    } else if (arg == "--exclude") {
      std::string prefix;
      if (!need_value(i, "--exclude", prefix)) return 2;
      options.exclude.push_back(prefix);
    } else if (arg == "--fix-suppressions") {
      fix_suppressions = true;
    } else if (arg == "--prune-suppressions") {
      prune = true;
    } else if (arg == "--prune-apply") {
      prune = true;
      prune_apply = true;
    } else if (arg == "--stale-as-error") {
      stale_as_error = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: aegis_lint [--root DIR] [--sarif FILE]\n"
             "                  [--graph-dump FILE] [--write-rng-manifest FILE]\n"
             "                  [--check-rng-manifest FILE] [--exclude PREFIX]\n"
             "                  [--prune-suppressions [--prune-apply]]\n"
             "                  [--stale-as-error] [--fix-suppressions]\n"
             "                  [--list-rules] [paths...]\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "aegis_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const RuleInfo& r : rule_catalog()) {
      std::cout << r.name;
      if (!r.suppress_tag.empty()) {
        std::cout << " (suppress: " << r.suppress_tag << ")";
      }
      std::cout << "\n    " << r.summary << "\n";
    }
    return 0;
  }

  options.paths =
      paths.empty()
          ? std::vector<std::string>{"src", "bench", "examples", "tools"}
          : paths;

  ProjectResult result;
  try {
    result = lint_project(options);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::vector<FileFinding> errors;
  std::vector<FileFinding> stale;
  for (const FileFinding& f : result.findings) {
    (f.finding.rule == "stale-suppression" ? stale : errors).push_back(f);
  }

  if (prune) {
    for (const FileFinding& f : stale) {
      std::cout << format_finding(f) << "\n";
    }
    if (prune_apply) {
      const std::size_t removed =
          prune_stale_suppressions(options.root, stale);
      std::cout << "aegis_lint: removed " << removed
                << " stale suppression(s)\n";
    } else {
      std::cout << "aegis_lint: " << stale.size()
                << " stale suppression(s); rerun with --prune-apply to "
                   "delete them\n";
    }
    return stale.empty() || prune_apply ? 0 : (stale_as_error ? 1 : 0);
  }

  if (!graph_dump_path.empty()) {
    const CallGraph graph(result.model);
    if (!write_text(graph_dump_path, graph.dump())) {
      std::cerr << "aegis_lint: cannot write " << graph_dump_path << "\n";
      return 2;
    }
  }

  bool manifest_failed = false;
  if (!write_manifest_path.empty() || !check_manifest_path.empty()) {
    const CallGraph graph(result.model);
    const std::string manifest = rng_manifest(graph);
    if (!write_manifest_path.empty()) {
      if (!write_text(write_manifest_path, manifest)) {
        std::cerr << "aegis_lint: cannot write " << write_manifest_path << "\n";
        return 2;
      }
      std::cout << "aegis_lint: wrote RNG manifest (digest "
                << manifest_digest_line(manifest) << ") to "
                << write_manifest_path << "\n";
    }
    if (!check_manifest_path.empty()) {
      bool ok = false;
      const std::string committed = read_text(check_manifest_path, ok);
      if (!ok) {
        std::cerr << "aegis_lint: cannot read " << check_manifest_path << "\n";
        return 2;
      }
      if (committed != manifest) {
        manifest_failed = true;
        std::cout << "aegis_lint: RNG manifest is out of date (committed "
                     "digest "
                  << (manifest_digest_line(committed).empty()
                          ? std::string("<missing>")
                          : manifest_digest_line(committed))
                  << ", code digest " << manifest_digest_line(manifest)
                  << ").\n"
                  << "    A hot-path-reachable util::Rng draw site was "
                     "added, removed, moved, or reordered. Review the "
                     "draw-order change, then regenerate:\n"
                  << "    aegis_lint --root <repo> --write-rng-manifest "
                  << check_manifest_path << " src bench examples tools\n";
      }
    }
  }

  if (fix_suppressions) {
    for (const FileFinding& f : errors) {
      std::cout << format_suppression_hint(f) << "\n";
    }
    return errors.empty() ? 0 : 1;
  }

  if (!sarif_path.empty()) {
    if (!write_text(sarif_path, sarif_report(result.findings))) {
      std::cerr << "aegis_lint: cannot write " << sarif_path << "\n";
      return 2;
    }
  }

  for (const FileFinding& f : errors) {
    std::cout << format_finding(f) << "\n";
  }
  for (const FileFinding& f : stale) {
    std::cout << (stale_as_error ? "" : "warning: ") << format_finding(f)
              << "\n";
  }

  const bool failed =
      !errors.empty() || manifest_failed || (stale_as_error && !stale.empty());
  if (failed) {
    std::cout << "aegis_lint: " << errors.size() << " finding(s)"
              << (manifest_failed ? ", stale RNG manifest" : "")
              << (stale_as_error && !stale.empty()
                      ? ", stale suppression(s)"
                      : "")
              << ". Fix them or suppress with a reason "
                 "(--fix-suppressions prints paste-ready comments; "
                 "--list-rules explains each rule).\n";
    return 1;
  }
  std::cout << "aegis_lint: clean\n";
  return 0;
}
