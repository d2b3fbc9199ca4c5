#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>

namespace aegis::lint {

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& t, char c) {
  return t.kind == TokenKind::kPunct && t.text.size() == 1 && t.text[0] == c;
}

bool is_ident(const Token& t, std::string_view name) {
  return t.kind == TokenKind::kIdent && t.text == name;
}

/// True when tokens[i] is preceded by `.` or `->` (a member access).
bool member_access(const Tokens& t, std::size_t i) {
  if (i == 0) return false;
  if (is_punct(t[i - 1], '.')) return true;
  return i >= 2 && is_punct(t[i - 1], '>') && is_punct(t[i - 2], '-');
}

/// True when tokens[i] is preceded by `::`.
bool scope_access(const Tokens& t, std::size_t i) {
  return i >= 2 && is_punct(t[i - 1], ':') && is_punct(t[i - 2], ':');
}

/// tokens[i] is `<`: returns the index one past the matching `>`, or
/// `fail` when the angle run is clearly not a template argument list
/// (hits `;` or `{` first, or never closes).
std::size_t skip_angles(const Tokens& t, std::size_t i, std::size_t fail) {
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (is_punct(t[j], '<')) ++depth;
    else if (is_punct(t[j], '>')) {
      if (--depth == 0) return j + 1;
    } else if (is_punct(t[j], ';') || is_punct(t[j], '{')) {
      return fail;
    }
  }
  return fail;
}

// ---------------------------------------------------------------------------
// banned-random

const std::set<std::string, std::less<>> kRandomTypes = {
    "random_device", "mt19937",     "mt19937_64",
    "minstd_rand",   "minstd_rand0", "default_random_engine",
    "ranlux24",      "ranlux48",     "knuth_b",
};

void rule_banned_random(const Tokens& t, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent) continue;
    if (kRandomTypes.count(t[i].text) != 0) {
      out.push_back(Finding{"banned-random", t[i].line,
                            "'" + t[i].text +
                                "' is nondeterministic or time-seeded; draw "
                                "from util::Rng (seeded via config) instead",
                            "random-ok"});
      continue;
    }
    if (member_access(t, i)) continue;  // rng_.rand() is someone's API
    const bool call = i + 1 < t.size() && is_punct(t[i + 1], '(');
    if (!call) continue;
    if (t[i].text == "rand" || t[i].text == "srand") {
      out.push_back(Finding{"banned-random", t[i].line,
                            "'" + t[i].text +
                                "()' breaks bit-identical reproduction; use "
                                "util::Rng with a config seed",
                            "random-ok"});
    } else if (t[i].text == "time" && !scope_access(t, i)) {
      out.push_back(Finding{"banned-random", t[i].line,
                            "'time()' reads the wall clock (typical RNG "
                            "seeding); seeds must come from config",
                            "random-ok"});
    } else if (t[i].text == "time" && scope_access(t, i) && i >= 3 &&
               is_ident(t[i - 3], "std")) {
      out.push_back(Finding{"banned-random", t[i].line,
                            "'std::time()' reads the wall clock; seeds must "
                            "come from config",
                            "random-ok"});
    }
  }
}

// ---------------------------------------------------------------------------
// banned-clock

const std::set<std::string, std::less<>> kClockTypes = {
    "steady_clock", "system_clock", "high_resolution_clock",
    "utc_clock",    "file_clock",   "tai_clock",
};

void rule_banned_clock(const Tokens& t, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent || kClockTypes.count(t[i].text) == 0) {
      continue;
    }
    if (is_punct(t[i + 1], ':') && is_punct(t[i + 2], ':') &&
        is_ident(t[i + 3], "now")) {
      out.push_back(Finding{
          "banned-clock", t[i + 3].line,
          "'" + t[i].text +
              "::now()' outside a reporting-only site makes results depend "
              "on wall time; compute from simulated state, or annotate the "
              "reporting site",
          "clock-ok"});
    }
  }
}

// ---------------------------------------------------------------------------
// std-hash

void rule_std_hash(const Tokens& t, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "hash") || !is_punct(t[i + 1], '<')) continue;
    if (!scope_access(t, i) || i < 3 || !is_ident(t[i - 3], "std")) continue;
    out.push_back(Finding{
        "std-hash", t[i].line,
        "std::hash has no cross-run/cross-platform stability; persisted "
        "values and cache keys must use util/hash.hpp FNV-1a",
        "std-hash-ok"});
  }
}

// ---------------------------------------------------------------------------
// unordered-iter

const std::set<std::string, std::less<>> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Names of variables/members declared with an unordered container type.
/// References count too: iterating a reference is just as order-dependent.
std::set<std::string, std::less<>> unordered_decls(const Tokens& t) {
  std::set<std::string, std::less<>> names;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent ||
        kUnorderedTypes.count(t[i].text) == 0 || !is_punct(t[i + 1], '<')) {
      continue;
    }
    std::size_t j = skip_angles(t, i + 1, t.size());
    if (j >= t.size()) continue;
    while (j < t.size() && (is_punct(t[j], '&') || is_punct(t[j], '*'))) ++j;
    if (j >= t.size() || t[j].kind != TokenKind::kIdent) continue;
    // `unordered_map<...> name(...)` / `name;` / `name =` declare a
    // variable; `name(` alone could also be a function returning the map —
    // treating it as a variable is the conservative choice for this rule.
    names.insert(t[j].text);
  }
  return names;
}

void rule_unordered_iter(const Tokens& t,
                         const std::set<std::string, std::less<>>& decls,
                         std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "for") || !is_punct(t[i + 1], '(')) continue;
    // Find the range-for `:` at paren depth 1 (skipping `::`).
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      if (is_punct(t[j], '(')) ++depth;
      else if (is_punct(t[j], ')')) {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (depth == 1 && is_punct(t[j], ':') && colon == 0 &&
                 !(j > 0 && is_punct(t[j - 1], ':')) &&
                 !(j + 1 < t.size() && is_punct(t[j + 1], ':'))) {
        colon = j;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (t[j].kind == TokenKind::kIdent && decls.count(t[j].text) != 0) {
        out.push_back(Finding{
            "unordered-iter", t[i].line,
            "range-for over unordered container '" + t[j].text +
                "': iteration order is a hash-table artifact; sort first, "
                "iterate a deterministic key list, or annotate why order "
                "cannot reach a ranked/serialized/selected result",
            "ordered-ok"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// noalloc

const std::set<std::string, std::less<>> kAllocCalls = {
    "malloc",       "calloc",        "realloc",     "aligned_alloc",
    "strdup",       "push_back",     "emplace_back", "emplace_front",
    "emplace",      "insert",        "resize",       "reserve",
    "append",       "assign",        "to_string",    "make_unique",
    "make_shared",
};

const std::set<std::string, std::less<>> kAllocContainers = {
    "vector", "deque", "list", "basic_string",
};

const std::set<std::string, std::less<>> kAllocStreams = {
    "ostringstream", "istringstream", "stringstream",
};

}  // namespace

std::vector<TokenRegion> noalloc_regions(const LexOutput& file,
                                         std::vector<Finding>& out) {
  std::vector<TokenRegion> regions;
  const Tokens& t = file.tokens;
  int pending_begin_line = -1;
  for (const Directive& d : file.directives) {
    if (d.tag == "noalloc") {
      // First `{` at or after the directive's line opens the guarded body.
      std::size_t open = t.size();
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].line >= d.line && is_punct(t[i], '{')) {
          open = i;
          break;
        }
      }
      if (open == t.size()) {
        out.push_back(Finding{"noalloc", d.line,
                              "misplaced 'noalloc' marker: no function body "
                              "follows it",
                              ""});
        continue;
      }
      int depth = 0;
      std::size_t close = t.size();
      for (std::size_t i = open; i < t.size(); ++i) {
        if (is_punct(t[i], '{')) ++depth;
        else if (is_punct(t[i], '}') && --depth == 0) {
          close = i;
          break;
        }
      }
      regions.push_back(TokenRegion{open, close});
    } else if (d.tag == "noalloc-begin") {
      if (pending_begin_line >= 0) {
        out.push_back(Finding{"noalloc", d.line,
                              "nested 'noalloc-begin' before the previous "
                              "region was closed",
                              ""});
      }
      pending_begin_line = d.line;
    } else if (d.tag == "noalloc-end") {
      if (pending_begin_line < 0) {
        out.push_back(
            Finding{"noalloc", d.line, "'noalloc-end' without a begin", ""});
        continue;
      }
      TokenRegion r;
      r.begin = t.size();
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].line > pending_begin_line) {
          r.begin = i;
          break;
        }
      }
      r.end = t.size();
      for (std::size_t i = r.begin; i < t.size(); ++i) {
        if (t[i].line >= d.line) {
          r.end = i;
          break;
        }
      }
      regions.push_back(r);
      pending_begin_line = -1;
    }
  }
  if (pending_begin_line >= 0) {
    out.push_back(Finding{"noalloc", pending_begin_line,
                          "'noalloc-begin' without a matching end", ""});
  }
  return regions;
}

bool alloc_site_at(const std::vector<Token>& t, std::size_t i,
                   std::string* what) {
  if (t[i].kind != TokenKind::kIdent) return false;
  const std::string& w = t[i].text;
  if (w == "new" && !member_access(t, i)) {
    *what = "new";
    return true;
  }
  const bool call = i + 1 < t.size() && is_punct(t[i + 1], '(');
  if (call && kAllocCalls.count(w) != 0) {
    *what = w + "()";
    return true;
  }
  if (kAllocStreams.count(w) != 0) {
    *what = w;
    return true;
  }
  // By-value container declaration/temporary: `vector<T> x` or
  // `vector<T>(...)`. References/pointers (`vector<T>&`) and nested
  // type names (`vector<T>::iterator`) do not allocate.
  if ((kAllocContainers.count(w) != 0 || w == "string") && i + 1 < t.size() &&
      is_punct(t[i + 1], '<')) {
    const std::size_t j = skip_angles(t, i + 1, t.size());
    if (j < t.size() &&
        (t[j].kind == TokenKind::kIdent || is_punct(t[j], '(') ||
         is_punct(t[j], '{')) &&
        !(j + 1 < t.size() && is_punct(t[j], ':'))) {
      *what = "by-value " + w;
      return true;
    }
  }
  return false;
}

namespace {

void rule_noalloc(const LexOutput& file,
                  const std::vector<TokenRegion>& regions,
                  std::vector<Finding>& out) {
  const Tokens& t = file.tokens;
  for (const TokenRegion& r : regions) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      std::string what;
      if (!alloc_site_at(t, i, &what)) continue;
      std::string msg;
      if (what == "new") {
        msg =
            "'new' inside a noalloc region (this path is proven "
            "allocation-free; see DESIGN.md)";
      } else if (what.size() > 2 && what.compare(what.size() - 2, 2, "()") == 0) {
        msg = "'" + what +
              "' may allocate inside a noalloc region; hoist the allocation "
              "out of the hot path";
      } else if (what.rfind("by-value ", 0) == 0) {
        msg = "by-value '" + what.substr(9) +
              "' constructed inside a noalloc region";
      } else {
        msg = "'" + what + "' allocates inside a noalloc region";
      }
      out.push_back(Finding{"noalloc", t[i].line, std::move(msg), "alloc-ok"});
    }
  }
}

// ---------------------------------------------------------------------------
// telemetry-handle

const std::set<std::string, std::less<>> kRecorderLookups = {
    "event_handle", "record_named"};

/// Inside a noalloc region, a by-name flight-recorder lookup is banned:
/// `event_handle("name", ...)` resolves a stream by name (registration
/// mutex + name-table append) and `record_named("name", ...)` is the
/// by-name record convenience. Handles must be resolved once (constructor
/// or function-local static) and recorded through; EventHandle::record
/// takes no string and never trips this rule.
void rule_telemetry_handle(const LexOutput& file,
                           const std::vector<TokenRegion>& regions,
                           std::vector<Finding>& out) {
  const Tokens& t = file.tokens;
  for (const TokenRegion& r : regions) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (t[i].kind != TokenKind::kIdent ||
          kRecorderLookups.count(t[i].text) == 0) {
        continue;
      }
      if (i + 2 >= t.size() || !is_punct(t[i + 1], '(')) continue;
      if (t[i + 2].kind != TokenKind::kString) continue;
      out.push_back(Finding{
          "telemetry-handle", t[i].line,
          "'" + t[i].text +
              "(\"...\")' resolves a recorder stream by name inside a "
              "noalloc region (string key + registration lock); resolve "
              "the handle once at construction and record through it",
          "telemetry-ok"});
    }
  }
}

// ---------------------------------------------------------------------------
// lock-order / blocking-in-lock

}  // namespace

void collect_lock_table(const LexOutput& lx,
                        std::map<std::string, MutexInfo>& table,
                        std::vector<Finding>* out) {
  const Tokens& t = lx.tokens;
  for (const Directive& d : lx.directives) {
    if (d.tag != "lock-level") continue;
    MutexInfo info;
    std::size_t p = 0;
    while (p < d.arg.size() && std::isspace(static_cast<unsigned char>(d.arg[p]))) ++p;
    std::size_t digits = p;
    while (digits < d.arg.size() && std::isdigit(static_cast<unsigned char>(d.arg[digits]))) ++digits;
    if (digits == p) {
      if (out != nullptr) {
        out->push_back(Finding{"lock-order", d.line,
                               "lock-level directive needs a numeric level: "
                               "lock-level(<n>[, noblock])",
                               ""});
      }
      continue;
    }
    info.level = std::stoi(d.arg.substr(p, digits - p));
    info.noblock = d.arg.find("noblock") != std::string::npos;

    // The declaration the directive annotates.
    int decl_line = -1;
    for (const Token& tok : t) {
      if (tok.line == d.line) {
        decl_line = d.line;
        break;
      }
    }
    if (decl_line < 0) {
      for (const Token& tok : t) {
        if (tok.line > d.line) {
          decl_line = tok.line;
          break;
        }
      }
    }
    std::string name;
    for (const Token& tok : t) {
      if (tok.line == decl_line && tok.kind == TokenKind::kIdent) {
        name = tok.text;
      }
    }
    if (name.empty()) {
      if (out != nullptr) {
        out->push_back(Finding{"lock-order", d.line,
                               "lock-level directive does not annotate a "
                               "declaration",
                               ""});
      }
      continue;
    }
    table[name] = info;
  }
}

namespace {

struct HeldGuard {
  std::string var;  // guard variable name ("" for an unnamed guard)
  int depth = 0;    // brace depth at construction
  int line = 0;
  std::vector<std::pair<std::string, MutexInfo>> mutexes;
};

void rule_locks(const LexOutput& file, const LexOutput* companion,
                std::vector<Finding>& out) {
  std::map<std::string, MutexInfo> table;
  if (companion != nullptr) collect_lock_table(*companion, table, nullptr);
  collect_lock_table(file, table, &out);
  if (table.empty()) return;

  const Tokens& t = file.tokens;
  std::vector<HeldGuard> held;
  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_punct(t[i], '{')) {
      ++depth;
      continue;
    }
    if (is_punct(t[i], '}')) {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      continue;
    }
    if (t[i].kind != TokenKind::kIdent) continue;
    const std::string& w = t[i].text;

    if (w == "lock_guard" || w == "unique_lock" || w == "scoped_lock") {
      std::size_t j = i + 1;
      if (j < t.size() && is_punct(t[j], '<')) j = skip_angles(t, j, t.size());
      HeldGuard g;
      g.depth = depth;
      g.line = t[i].line;
      if (j < t.size() && t[j].kind == TokenKind::kIdent) {
        g.var = t[j].text;
        ++j;
      }
      if (j >= t.size() || !is_punct(t[j], '(')) continue;  // not a guard decl
      // Split constructor args at top-level commas; the mutex an arg names
      // is its last identifier (`mu_`, `entry->mu`, `own.mu`).
      int pd = 0;
      std::string last_ident;
      for (std::size_t k = j; k < t.size(); ++k) {
        if (is_punct(t[k], '(')) {
          ++pd;
          continue;
        }
        const bool closes = is_punct(t[k], ')') && --pd == 0;
        const bool splits = pd == 1 && is_punct(t[k], ',');
        if (is_punct(t[k], ')') && !closes) continue;
        if (closes || splits) {
          const auto it = table.find(last_ident);
          if (it != table.end()) g.mutexes.emplace_back(it->first, it->second);
          last_ident.clear();
          if (closes) break;
          continue;
        }
        if (t[k].kind == TokenKind::kIdent) last_ident = t[k].text;
      }
      if (g.mutexes.empty()) continue;
      for (const auto& [name, info] : g.mutexes) {
        for (const HeldGuard& h : held) {
          for (const auto& [held_name, held_info] : h.mutexes) {
            if (info.level <= held_info.level) {
              out.push_back(Finding{
                  "lock-order", g.line,
                  "mutex '" + name + "' (level " + std::to_string(info.level) +
                      ") acquired while holding '" + held_name + "' (level " +
                      std::to_string(held_info.level) +
                      "); the declared lock order requires strictly "
                      "increasing levels",
                  "lock-ok"});
            }
          }
        }
      }
      held.push_back(std::move(g));
      continue;
    }

    // Blocking calls while a noblock mutex is held.
    const bool any_noblock = std::any_of(
        held.begin(), held.end(), [](const HeldGuard& h) {
          return std::any_of(h.mutexes.begin(), h.mutexes.end(),
                             [](const auto& m) { return m.second.noblock; });
        });
    if (!any_noblock) continue;
    const bool call = i + 1 < t.size() && is_punct(t[i + 1], '(');
    if (!call || !member_access(t, i)) continue;

    if (w == "wait" || w == "wait_for" || w == "wait_until") {
      // cv.wait(lock, ...) releases `lock` while waiting — allowed when
      // every OTHER held mutex is blocking-tolerant.
      std::string first_arg;
      for (std::size_t k = i + 2; k < t.size(); ++k) {
        if (is_punct(t[k], ',') || is_punct(t[k], ')')) break;
        if (t[k].kind == TokenKind::kIdent && first_arg.empty()) {
          first_arg = t[k].text;
        }
      }
      bool flagged = false;
      for (const HeldGuard& h : held) {
        if (!h.var.empty() && h.var == first_arg) continue;  // the released lock
        for (const auto& [name, info] : h.mutexes) {
          if (info.noblock && !flagged) {
            out.push_back(Finding{
                "blocking-in-lock", t[i].line,
                "condition wait while holding noblock mutex '" + name +
                    "' (held since line " + std::to_string(h.line) +
                    "); waiters on that mutex stall behind this wait",
                "blocking-ok"});
            flagged = true;
          }
        }
      }
    } else if (w == "join" || w == "push" || w == "pop" || w == "pop_batch") {
      bool flagged = false;  // one finding per call site is enough
      for (const HeldGuard& h : held) {
        for (const auto& [name, info] : h.mutexes) {
          if (info.noblock && !flagged) {
            out.push_back(Finding{
                "blocking-in-lock", t[i].line,
                "blocking call '" + w + "()' while holding noblock mutex '" +
                    name + "' (held since line " + std::to_string(h.line) +
                    "); release it before blocking",
                "blocking-ok"});
            flagged = true;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// backend-registry

void rule_backend_registry(const Tokens& t, std::vector<Finding>& out) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], "generate") || !is_punct(t[i + 1], '(')) continue;
    if (!scope_access(t, i) || i < 3 || !is_ident(t[i - 3], "EventDatabase")) {
      continue;
    }
    out.push_back(
        Finding{"backend-registry", t[i].line,
                "direct EventDatabase::generate() bypasses the PMU backend "
                "layer; resolve the database through "
                "pmu::backend::backend_for(model), which builds each "
                "model's database once and shares it with the model's "
                "attack-event ids",
                "event-db-ok"});
  }
}

}  // namespace

std::vector<RuleInfo> rule_catalog() {
  return {
      {"banned-random", "random-ok",
       "rand()/srand()/std::random_device/std RNG engines/time() seeding; "
       "all randomness must flow through util::Rng"},
      {"banned-clock", "clock-ok",
       "std::*_clock::now() outside reporting-only sites (bench/ exempt)"},
      {"std-hash", "std-hash-ok",
       "std::hash<> is unstable across runs; cache keys and persisted "
       "values use util/hash.hpp FNV-1a"},
      {"unordered-iter", "ordered-ok",
       "range-for over std::unordered_{map,set}: hash-order iteration must "
       "not feed ranked, serialized, or greedily-selected results"},
      {"noalloc", "alloc-ok",
       "no allocation inside '// aegis-lint: noalloc' functions or "
       "noalloc-begin/-end regions"},
      {"telemetry-handle", "telemetry-ok",
       "no by-name flight-recorder lookup (event_handle/record_named("
       "\"...\")) inside noalloc regions; resolve handles once and record "
       "through them"},
      {"lock-order", "lock-ok",
       "mutexes with '// aegis-lint: lock-level(N)' must nest in strictly "
       "increasing level order"},
      {"blocking-in-lock", "blocking-ok",
       "no joins, queue push/pop, or foreign condition waits while holding "
       "a 'noblock' mutex"},
      {"backend-registry", "event-db-ok",
       "EventDatabase::generate() outside src/pmu/backend/: resolve "
       "databases through pmu::backend::backend_for(model) instead"},
      {"rng-stream", "stream-ok",
       "functions drawing from (or forwarding) a util::Rng must declare "
       "their stream with '// aegis-rng: stream(<name>)'"},
      {"noalloc-transitive", "alloc-ok",
       "calls inside noalloc regions must not reach an allocation through "
       "any callee chain (interprocedural; depth >= 1)"},
      {"lock-order-global", "lock-ok",
       "calling a function that transitively acquires lock level L while "
       "holding level H >= L violates the declared order across TUs"},
      // ("suppression" and "stale-suppression" are diagnostics about the
      // suppression machinery itself, not suppressible rules, so they are
      // deliberately not catalog rows.)
  };
}

std::vector<Finding> run_rules(const LexOutput& file, const LexOutput* companion,
                               const LintConfig& config) {
  std::vector<Finding> out;
  rule_banned_random(file.tokens, out);
  if (config.clock_rule) rule_banned_clock(file.tokens, out);
  if (config.backend_rule) rule_backend_registry(file.tokens, out);
  rule_std_hash(file.tokens, out);

  auto decls = unordered_decls(file.tokens);
  if (companion != nullptr) {
    auto more = unordered_decls(companion->tokens);
    decls.insert(more.begin(), more.end());
  }
  rule_unordered_iter(file.tokens, decls, out);

  // Both region-scoped rules share one resolution pass (and its misplaced-
  // marker findings are emitted exactly once).
  const std::vector<TokenRegion> regions = noalloc_regions(file, out);
  rule_noalloc(file, regions, out);
  rule_telemetry_handle(file, regions, out);
  rule_locks(file, companion, out);

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return out;
}

}  // namespace aegis::lint
