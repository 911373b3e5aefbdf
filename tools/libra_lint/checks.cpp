// The five lexical checks. Token-level analysis is deliberately conservative:
// it understands declarations, template argument lists, class bodies and
// range-for statements well enough to enforce the repo idioms, and anything
// it cannot prove order-insensitive must carry an explicit, reasoned
// LIBRA_LINT_ALLOW. The clang AST backend (clang_backend.cpp) runs the same
// checks with real type information when LLVM dev packages are present.
#include <algorithm>
#include <set>

#include "lexer.h"
#include "lint.h"

namespace libra::lint {

namespace {

using Tokens = std::vector<Token>;

bool is_ident(const Token& t, const char* s) {
  return t.kind == TokKind::kIdent && t.text == s;
}

bool enabled(const LintOptions& opt, Check c) {
  return opt.checks.empty() ||
         std::find(opt.checks.begin(), opt.checks.end(), c) !=
             opt.checks.end();
}

/// File stem for per-file variable scoping: "src/sim/engine.h" -> "engine".
std::string stem_of(const std::string& rule_path) {
  const size_t slash = rule_path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? rule_path : rule_path.substr(slash + 1);
  const size_t dot = base.find('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

const std::set<std::string>& unordered_type_names() {
  static const std::set<std::string> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kNames;
}

/// Advances past a balanced <...> starting at tokens[i] == "<". Returns the
/// index one past the closing ">", or `i` unchanged if unbalanced within
/// `limit` tokens (gives up on expression-context '<').
size_t skip_angles(const Tokens& toks, size_t i, size_t limit = 256) {
  if (i >= toks.size() || toks[i].text != "<") return i;
  int depth = 0;
  size_t steps = 0;
  for (size_t j = i; j < toks.size() && steps < limit; ++j, ++steps) {
    if (toks[j].text == "<") ++depth;
    else if (toks[j].text == ">") {
      if (--depth == 0) return j + 1;
    } else if (toks[j].text == ";") {
      break;  // statements never span a template argument list
    }
  }
  return i;
}

/// Advances past a balanced (...) starting at tokens[i] == "(".
size_t skip_parens(const Tokens& toks, size_t i) {
  if (i >= toks.size() || toks[i].text != "(") return i;
  int depth = 0;
  for (size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == "(") ++depth;
    else if (toks[j].text == ")" && --depth == 0) return j + 1;
  }
  return toks.size();
}

/// Advances past a balanced {...} starting at tokens[i] == "{".
size_t skip_braces(const Tokens& toks, size_t i) {
  if (i >= toks.size() || toks[i].text != "{") return i;
  int depth = 0;
  for (size_t j = i; j < toks.size(); ++j) {
    if (toks[j].text == "{") ++depth;
    else if (toks[j].text == "}" && --depth == 0) return j + 1;
  }
  return toks.size();
}

// ---- check 1: nondeterminism-source ----

void check_nondeterminism(const std::string& rule_path, const Tokens& toks,
                          std::vector<Finding>* out) {
  static const std::set<std::string> kBannedCalls = {
      "rand", "srand", "getenv", "secure_getenv", "gettimeofday",
      "clock_gettime", "localtime", "gmtime"};
  static const std::set<std::string> kClocks = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string> kThreads = {"thread", "jthread", "async"};
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool called = i + 1 < toks.size() && toks[i + 1].text == "(";
    const bool qualified = i > 0 && toks[i - 1].text == "::";
    const bool member = i > 0 && (toks[i - 1].text == "." ||
                                  toks[i - 1].text == "->");
    if (kBannedCalls.count(t.text) && (called || qualified) && !member) {
      out->push_back({Check::kNondeterminismSource, rule_path, t.line,
                      "'" + t.text +
                          "' in the sim core: all randomness must flow "
                          "through util::Rng seeded substreams and all time "
                          "through the sim clock",
                      false,
                      {}});
      continue;
    }
    if (t.text == "random_device" && !member) {
      out->push_back({Check::kNondeterminismSource, rule_path, t.line,
                      "std::random_device in the sim core: use util::Rng "
                      "forked from the run seed",
                      false,
                      {}});
      continue;
    }
    // The engine runs on one thread, the event loop, and a thread started
    // in the sim core would race it. A static member such as
    // std::thread::hardware_concurrency() starts none.
    const bool std_qualified =
        qualified && i > 1 && toks[i - 2].text == "std";
    const bool scope = i + 1 < toks.size() && toks[i + 1].text == "::";
    if (kThreads.count(t.text) && std_qualified && !scope) {
      out->push_back({Check::kNondeterminismSource, rule_path, t.line,
                      "'std::" + t.text +
                          "' in the sim core: the engine runs on one "
                          "thread, the event loop; parallel work needs a "
                          "reasoned ALLOW",
                      false,
                      {}});
      continue;
    }
    if (kClocks.count(t.text) && !member) {
      out->push_back({Check::kNondeterminismSource, rule_path, t.line,
                      "wall clock '" + t.text +
                          "' in the sim core: sim time comes from the event "
                          "queue; real timing belongs in bench/ or needs an "
                          "ALLOW",
                      false,
                      {}});
      continue;
    }
    // std::hash<T*>: pointer values are run-dependent; hashing them leaks
    // ASLR into bucket orders.
    if (t.text == "hash" && i + 1 < toks.size() && toks[i + 1].text == "<") {
      const size_t end = skip_angles(toks, i + 1);
      for (size_t j = i + 1; j < end; ++j)
        if (toks[j].text == "*") {
          out->push_back({Check::kNondeterminismSource, rule_path, t.line,
                          "std::hash over a pointer type: pointer values are "
                          "nondeterministic across runs",
                          false,
                          {}});
          break;
        }
    }
  }
}

// ---- check 2: unordered-iteration ----

void index_unordered(const std::string& rule_path, const Tokens& toks,
                     SymbolIndex* index) {
  const std::string stem = stem_of(rule_path);
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        !unordered_type_names().count(toks[i].text))
      continue;
    size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    const size_t after = skip_angles(toks, j);
    if (after == j) continue;  // unbalanced; not a type use
    j = after;
    // Skip cv/ref/pointer decorations between the type and the name.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            is_ident(toks[j], "const")))
      ++j;
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    const std::string name = toks[j].text;
    // A member's trailing thread-safety annotation
    // (`LIBRA_GUARDED_BY(mu_)`) sits between its name and the `;`.
    size_t k = j + 1;
    while (k + 1 < toks.size() && toks[k].kind == TokKind::kIdent &&
           toks[k].text.rfind("LIBRA_", 0) == 0 && toks[k + 1].text == "(")
      k = skip_parens(toks, k + 1);
    const std::string next = k < toks.size() ? toks[k].text : "";
    if (next == "(")
      index->unordered_fns[name] = rule_path;
    else if (next == ";" || next == "=" || next == "{" || next == ",")
      index->unordered_vars_by_stem[stem].push_back(name);
  }
}

void check_unordered_iteration(const std::string& rule_path,
                               const Tokens& toks, const SymbolIndex* index,
                               std::vector<Finding>* out) {
  const std::string stem = stem_of(rule_path);
  auto is_unordered_name = [&](size_t i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) return false;
    if (t.text.rfind("unordered_", 0) == 0) return true;
    if (index == nullptr) return false;
    const bool called = i + 1 < toks.size() && toks[i + 1].text == "(";
    if (called) return index->is_unordered_fn(t.text);
    return index->is_unordered_var(stem, t.text);
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    // Range-for over an unordered container.
    if (is_ident(toks[i], "for") && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const size_t close = skip_parens(toks, i + 1);
      // Find the top-level ':' separating declaration from range.
      size_t colon = 0;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{")
          ++depth;
        else if (toks[j].text == ")" || toks[j].text == "]" ||
                 toks[j].text == "}")
          --depth;
        else if (toks[j].text == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon != 0) {
        for (size_t j = colon + 1; j < close; ++j) {
          if (!is_unordered_name(j)) continue;
          out->push_back(
              {Check::kUnorderedIteration, rule_path, toks[i].line,
               "range-for over unordered container '" + toks[j].text +
                   "': hash order must not leak into digests/metrics/exports "
                   "— iterate a sorted snapshot or ALLOW with a reason",
               false,
               {}});
          break;
        }
      }
      continue;
    }
    // Iterator walk: <unordered>.begin() / .cbegin().
    if (toks[i].kind == TokKind::kIdent && i + 2 < toks.size() &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        (is_ident(toks[i + 2], "begin") || is_ident(toks[i + 2], "cbegin")) &&
        i + 3 < toks.size() && toks[i + 3].text == "(" &&
        is_unordered_name(i)) {
      out->push_back(
          {Check::kUnorderedIteration, rule_path, toks[i].line,
           "iterator walk over unordered container '" + toks[i].text +
               "': hash order must not leak into digests/metrics/exports — "
               "iterate a sorted snapshot or ALLOW with a reason",
           false,
           {}});
    }
  }
}

// ---- check 3: guarded-by-coverage ----

struct MemberDecl {
  std::string name;
  int line = 0;
  bool guarded = false;       // LIBRA_GUARDED_BY / LIBRA_PT_GUARDED_BY
  bool is_util_mutex = false;
  bool is_std_mutex = false;
  bool exempt = false;  // const / reference / atomic / condition_variable
  /// Associative-container template name in the declared type ("map",
  /// "unordered_set", ...), empty for other members. Includes containers
  /// nested inside other templates (a vector-of-maps member is still a map
  /// per element).
  std::string assoc_type;
};

struct ClassInfo {
  std::string name;
  int line = 0;
  std::vector<MemberDecl> members;
};

constexpr const char* kTypeKeywords[] = {
    "void", "int",  "long",   "short",    "char", "bool",
    "auto", "float", "double", "unsigned", "signed"};

bool is_type_keyword(const std::string& s) {
  for (const char* k : kTypeKeywords)
    if (s == k) return true;
  return false;
}

/// The node-based associative containers flat-hot-path keeps out of the
/// hot-path files: every map and set flavour, ordered or hashed.
bool is_assoc_container(const std::string& s) {
  static const std::set<std::string> kNames = {
      "map", "unordered_map", "multimap", "unordered_multimap",
      "set", "unordered_set", "multiset", "unordered_multiset"};
  return kNames.count(s) != 0;
}

/// Classifies one class-body statement (tokens [b, e), no trailing ';').
/// Returns true when it is an instance data member.
bool classify_member(const Tokens& toks, size_t b, size_t e, bool had_body,
                     MemberDecl* out) {
  if (b >= e) return false;
  static const std::set<std::string> kSkipLead = {
      "using", "typedef", "friend", "template", "static_assert", "enum",
      "public", "private", "protected", "static", "constexpr", "operator"};
  if (kSkipLead.count(toks[b].text)) return false;
  if (had_body) return false;  // function definitions and nested types

  bool guarded = false;
  Tokens stmt;
  stmt.reserve(e - b);
  for (size_t i = b; i < e; ++i) {
    if (is_ident(toks[i], "LIBRA_GUARDED_BY") ||
        is_ident(toks[i], "LIBRA_PT_GUARDED_BY")) {
      guarded = true;
      i = skip_parens(toks, i + 1) - 1;
      continue;
    }
    // Other annotation macros (EXCLUDES/REQUIRES/ACQUIRE/...) just vanish.
    if (toks[i].kind == TokKind::kIdent &&
        toks[i].text.rfind("LIBRA_", 0) == 0 && i + 1 < e &&
        toks[i + 1].text == "(") {
      i = skip_parens(toks, i + 1) - 1;
      continue;
    }
    if (kSkipLead.count(toks[i].text) &&
        (toks[i].text == "static" || toks[i].text == "constexpr"))
      return false;
    stmt.push_back(toks[i]);
  }
  if (stmt.empty()) return false;
  if (kSkipLead.count(stmt[0].text)) return false;

  // Walk the declarator part: template args skipped, first top-level paren
  // group decides function-ness by its preceding token.
  size_t name_idx = stmt.size();  // last plain identifier before init/end
  bool is_const = false;
  bool is_ref = false;
  for (size_t i = 0; i < stmt.size(); ++i) {
    const Token& t = stmt[i];
    if (t.text == "<" && i > 0 && stmt[i - 1].kind == TokKind::kIdent) {
      const size_t after = skip_angles(stmt, i);
      if (after != i) {
        i = after - 1;
        continue;
      }
    }
    if (t.text == "=" || t.text == "{" || t.text == "[") break;
    if (t.text == "(") {
      const bool prev_is_name =
          i > 0 && stmt[i - 1].kind == TokKind::kIdent &&
          !is_type_keyword(stmt[i - 1].text);
      const bool prev_is_dtor = i > 1 && stmt[i - 2].text == "~";
      if (prev_is_name || prev_is_dtor) return false;  // function / ctor
      // Function-pointer member: void (*cb_)(int); — keep scanning inside.
      const size_t after = skip_parens(stmt, i);
      for (size_t j = i + 1; j + 1 < after; ++j)
        if (stmt[j].kind == TokKind::kIdent) name_idx = j;
      i = after - 1;
      continue;
    }
    if (is_ident(t, "const")) {
      is_const = true;
      continue;
    }
    if (t.text == "*") is_const = false;  // const applied to the pointee
    if (t.text == "&") is_ref = true;
    if (t.kind == TokKind::kIdent && !is_type_keyword(t.text) &&
        t.text != "mutable")
      name_idx = i;
  }
  if (name_idx >= stmt.size()) return false;

  out->name = stmt[name_idx].text;
  out->line = stmt[name_idx].line;
  out->guarded = guarded;
  for (size_t i = 0; i < name_idx; ++i) {
    const std::string& s = stmt[i].text;
    if (s == "Mutex") out->is_util_mutex = true;
    if (s == "mutex" && i > 0 && stmt[i - 1].text == "::")
      out->is_std_mutex = true;
    if (is_assoc_container(s) && i + 1 < stmt.size() &&
        stmt[i + 1].text == "<" && out->assoc_type.empty())
      out->assoc_type = s;
    if (s == "atomic" || s == "condition_variable" ||
        s == "condition_variable_any")
      out->exempt = true;
  }
  if (is_const || is_ref) out->exempt = true;
  return true;
}

/// Parses one class body starting at the '{' token; appends every class
/// found (including nested ones) to `classes`. Returns the index one past
/// the closing '}'.
size_t parse_class_body(const Tokens& toks, size_t open_brace,
                        const std::string& name, std::vector<ClassInfo>* classes);

/// Handles a `class`/`struct` keyword at index i (if it introduces a
/// definition); returns the index to resume scanning from.
size_t maybe_parse_class(const Tokens& toks, size_t i,
                         std::vector<ClassInfo>* classes) {
  // template <class T> / enum class: not definitions.
  if (i > 0 && (toks[i - 1].text == "<" || toks[i - 1].text == "," ||
                is_ident(toks[i - 1], "enum")))
    return i + 1;
  std::string name = "<anonymous>";
  size_t j = i + 1;
  // Attribute macros / export macros before the name are rare here; accept a
  // run of identifiers and remember the last one before '{', ':' or ';'.
  int angle_guard = 0;
  for (; j < toks.size(); ++j) {
    const std::string& s = toks[j].text;
    if (s == ";") return j + 1;  // forward declaration
    if (s == "{") break;
    if (s == "<") {  // explicit specialization args
      const size_t after = skip_angles(toks, j);
      if (after == j) return j + 1;
      j = after - 1;
      continue;
    }
    if (s == ":") {  // base clause; scan to '{'
      while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";")
        ++j;
      break;
    }
    if (toks[j].kind == TokKind::kIdent && s != "final" && s != "alignas")
      name = s;
    if (++angle_guard > 64) return j;  // bail on pathological input
  }
  if (j >= toks.size() || toks[j].text != "{") return i + 1;
  ClassInfo info;
  info.name = name;
  info.line = toks[i].line;
  classes->push_back(info);
  return parse_class_body(toks, j, name, classes);
}

size_t parse_class_body(const Tokens& toks, size_t open_brace,
                        const std::string& name,
                        std::vector<ClassInfo>* classes) {
  // The ClassInfo for this body is the last one pushed with this name. Keep
  // the index, not a pointer: nested definitions reallocate the vector.
  size_t self = classes->size();
  while (self > 0 && (*classes)[self - 1].name != name) --self;

  size_t i = open_brace + 1;
  size_t stmt_begin = i;
  bool stmt_had_body = false;
  while (i < toks.size() && toks[i].text != "}") {
    const std::string& s = toks[i].text;
    if (is_ident(toks[i], "class") || is_ident(toks[i], "struct") ||
        is_ident(toks[i], "union")) {
      // Nested definition (or an elaborated type in a member decl — the
      // helper returns i+1 in that case and the statement continues).
      const size_t before = i;
      size_t next = maybe_parse_class(toks, i, classes);
      if (next > before + 1) {  // consumed a definition or fwd decl
        i = next;
        if (i < toks.size() && toks[i].text == ";") ++i;
        stmt_begin = i;
        stmt_had_body = false;
        continue;
      }
      ++i;
      continue;
    }
    if ((s == "public" || s == "private" || s == "protected") &&
        i + 1 < toks.size() && toks[i + 1].text == ":") {
      i += 2;
      stmt_begin = i;
      stmt_had_body = false;
      continue;
    }
    if (s == "{") {
      const size_t after = skip_braces(toks, i);
      // Brace-init `{0}` directly after an identifier is part of a member
      // declaration; any other block is a function body / init list.
      const bool brace_init =
          i > 0 && (toks[i - 1].kind == TokKind::kIdent ||
                    toks[i - 1].text == "=");
      if (!brace_init) stmt_had_body = true;
      i = after;
      // Function definition without trailing ';' ends the statement.
      if (stmt_had_body && (i >= toks.size() || toks[i].text != ";")) {
        stmt_begin = i;
        stmt_had_body = false;
      }
      continue;
    }
    if (s == "(") {
      i = skip_parens(toks, i);
      continue;
    }
    if (s == ";") {
      if (self > 0) {
        MemberDecl m;
        if (classify_member(toks, stmt_begin, i, stmt_had_body, &m))
          (*classes)[self - 1].members.push_back(m);
      }
      ++i;
      stmt_begin = i;
      stmt_had_body = false;
      continue;
    }
    ++i;
  }
  return i < toks.size() ? i + 1 : i;
}

void check_guarded_by(const std::string& rule_path, const Tokens& toks,
                      std::vector<Finding>* out) {
  std::vector<ClassInfo> classes;
  for (size_t i = 0; i < toks.size();) {
    if (is_ident(toks[i], "class") || is_ident(toks[i], "struct") ||
        is_ident(toks[i], "union")) {
      const size_t next = maybe_parse_class(toks, i, &classes);
      i = next > i ? next : i + 1;
    } else {
      ++i;
    }
  }
  for (const ClassInfo& cls : classes) {
    bool owns_util_mutex = false;
    for (const MemberDecl& m : cls.members) {
      if (m.is_util_mutex) owns_util_mutex = true;
      if (m.is_std_mutex)
        out->push_back(
            {Check::kGuardedByCoverage, rule_path, m.line,
             "raw std::mutex member '" + m.name + "' in " + cls.name +
                 ": use util::Mutex so clang -Wthread-safety can prove the "
                 "lock discipline, or ALLOW with a reason",
             false,
             {}});
    }
    if (!owns_util_mutex) continue;
    for (const MemberDecl& m : cls.members) {
      if (m.is_util_mutex || m.is_std_mutex || m.exempt || m.guarded) continue;
      out->push_back(
          {Check::kGuardedByCoverage, rule_path, m.line,
           cls.name + " owns a util::Mutex but member '" + m.name +
               "' is not LIBRA_GUARDED_BY — annotate it, or ALLOW with the "
               "reason it is safe unguarded",
           false,
           {}});
    }
  }
}

// ---- check 6: flat-hot-path ----

void check_flat_hot_path(const std::string& rule_path, const Tokens& toks,
                         std::vector<Finding>* out) {
  std::vector<ClassInfo> classes;
  for (size_t i = 0; i < toks.size();) {
    if (is_ident(toks[i], "class") || is_ident(toks[i], "struct") ||
        is_ident(toks[i], "union")) {
      const size_t next = maybe_parse_class(toks, i, &classes);
      i = next > i ? next : i + 1;
    } else {
      ++i;
    }
  }
  for (const ClassInfo& cls : classes) {
    for (const MemberDecl& m : cls.members) {
      if (m.assoc_type.empty()) continue;
      out->push_back(
          {Check::kFlatHotPath, rule_path, m.line,
           "std::" + m.assoc_type + " member '" + m.name + "' in " +
               cls.name +
               ": per-decision state in the hot-path files lives in flat "
               "index-addressed vectors/slabs (DESIGN.md §5l) — use "
               "node/slot-indexed storage or sorted vectors, or ALLOW with "
               "the reason a node-based container is required",
           false,
           {}});
    }
  }
}

// ---- check 4: bare-assert ----

void check_bare_assert(const std::string& rule_path, const Tokens& toks,
                       std::vector<Finding>* out) {
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "assert") || toks[i + 1].text != "(") continue;
    if (toks[i].in_preprocessor) continue;  // #include <cassert> guards etc.
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                  toks[i - 1].text == "::"))
      continue;  // member/namespace named assert
    out->push_back({Check::kBareAssert, rule_path, toks[i].line,
                    "bare assert() compiles out in release builds and loses "
                    "engine context — use LIBRA_AUDIT_CHECK",
                    false,
                    {}});
  }
}

// ---- check 5: ledger-narrowing ----

const std::set<std::string>& int_type_names() {
  static const std::set<std::string> kNames = {
      "int",     "long",    "short",    "size_t",  "int32_t", "int64_t",
      "uint32_t", "uint64_t", "ssize_t", "ptrdiff_t"};
  return kNames;
}

void check_ledger_narrowing(const std::string& rule_path, const Tokens& toks,
                            std::vector<Finding>* out) {
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    // float in ledger arithmetic: the conservation sums are double.
    if (is_ident(t, "float")) {
      out->push_back({Check::kLedgerNarrowing, rule_path, t.line,
                      "float in ledger arithmetic: conservation sums are "
                      "double; float rounding breaks the <= tolerance audits",
                      false,
                      {}});
      continue;
    }
    // C-style numeric cast: ( type ) expr — where '(' is not a call. A
    // preceding keyword (return, case, ...) still allows a cast position.
    static const std::set<std::string> kExprKeywords = {
        "return", "case", "else", "do", "co_return", "co_yield", "throw"};
    const bool prev_blocks_cast =
        i > 0 && ((toks[i - 1].kind == TokKind::kIdent &&
                   !kExprKeywords.count(toks[i - 1].text)) ||
                  toks[i - 1].text == ")" || toks[i - 1].text == "]" ||
                  toks[i - 1].text == ">");
    if (t.text == "(" && !prev_blocks_cast) {
      size_t j = i + 1;
      while (j < toks.size() && (is_ident(toks[j], "const") ||
                                 is_ident(toks[j], "unsigned") ||
                                 is_ident(toks[j], "signed")))
        ++j;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent &&
          (int_type_names().count(toks[j].text) || toks[j].text == "float" ||
           toks[j].text == "double" || toks[j].text == "char") &&
          j + 1 < toks.size()) {
        size_t k = j + 1;
        while (k < toks.size() && is_ident(toks[k], "long")) ++k;  // long long
        if (k < toks.size() && toks[k].text == ")" && k + 1 < toks.size() &&
            (toks[k + 1].kind == TokKind::kIdent ||
             toks[k + 1].kind == TokKind::kNumber ||
             toks[k + 1].text == "(")) {
          out->push_back({Check::kLedgerNarrowing, rule_path, t.line,
                          "C-style numeric cast in ledger arithmetic: use "
                          "static_cast so narrowing is explicit and greppable",
                          false,
                          {}});
          continue;
        }
      }
    }
    // Integer declaration initialized from double-typed ledger expressions
    // (.cpu / .mem members, floating literals) without an explicit cast.
    if (t.kind == TokKind::kIdent && int_type_names().count(t.text) &&
        !(i > 0 && (toks[i - 1].text == "<" || toks[i - 1].text == "," ||
                    toks[i - 1].text == "::")) &&
        i + 2 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
        toks[i + 2].text == "=") {
      bool has_fp = false, has_cast = false;
      for (size_t j = i + 3; j < toks.size() && toks[j].text != ";"; ++j) {
        if (toks[j].kind == TokKind::kNumber &&
            (toks[j].text.find('.') != std::string::npos ||
             (toks[j].text.find('e') != std::string::npos &&
              toks[j].text.rfind("0x", 0) != 0)))
          has_fp = true;
        if ((is_ident(toks[j], "cpu") || is_ident(toks[j], "mem")) && j > 0 &&
            (toks[j - 1].text == "." || toks[j - 1].text == "->"))
          has_fp = true;
        if (is_ident(toks[j], "static_cast") || is_ident(toks[j], "lround") ||
            is_ident(toks[j], "llround") || is_ident(toks[j], "floor") ||
            is_ident(toks[j], "ceil") || is_ident(toks[j], "round"))
          has_cast = true;
      }
      if (has_fp && !has_cast)
        out->push_back(
            {Check::kLedgerNarrowing, rule_path, toks[i + 1].line,
             "integer '" + toks[i + 1].text +
                 "' initialized from double-typed ledger arithmetic without "
                 "an explicit cast — narrowing must be visible",
             false,
             {}});
    }
  }
}

}  // namespace

// ---- SymbolIndex ----

bool SymbolIndex::is_unordered_fn(const std::string& name) const {
  return unordered_fns.count(name) > 0;
}

bool SymbolIndex::is_unordered_var(const std::string& stem,
                                   const std::string& name) const {
  const auto it = unordered_vars_by_stem.find(stem);
  if (it == unordered_vars_by_stem.end()) return false;
  return std::find(it->second.begin(), it->second.end(), name) !=
         it->second.end();
}

void index_file(const std::string& rule_path, const std::string& content,
                SymbolIndex* index) {
  const LexResult lexed = lex(content);
  index_unordered(rule_path, lexed.tokens, index);
}

// ---- per-file analysis ----

std::vector<Finding> analyze_content(const std::string& rule_path,
                                     const std::string& content,
                                     const LintOptions& opt,
                                     const SymbolIndex* index) {
  std::vector<Finding> findings;
  const LexResult lexed = lex(content);
  const std::vector<Suppression> sups =
      parse_suppressions(content, &findings, rule_path);

  if (in_src(rule_path)) {
    if (enabled(opt, Check::kNondeterminismSource) && in_sim_core(rule_path))
      check_nondeterminism(rule_path, lexed.tokens, &findings);
    if (enabled(opt, Check::kUnorderedIteration))
      check_unordered_iteration(rule_path, lexed.tokens, index, &findings);
    if (enabled(opt, Check::kGuardedByCoverage))
      check_guarded_by(rule_path, lexed.tokens, &findings);
    if (enabled(opt, Check::kBareAssert))
      check_bare_assert(rule_path, lexed.tokens, &findings);
    if (enabled(opt, Check::kLedgerNarrowing) && in_ledger_files(rule_path))
      check_ledger_narrowing(rule_path, lexed.tokens, &findings);
    if (enabled(opt, Check::kFlatHotPath) && in_hot_path_files(rule_path))
      check_flat_hot_path(rule_path, lexed.tokens, &findings);
  }

  apply_suppressions(sups, &findings);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return std::string(check_name(a.check)) < check_name(b.check);
            });
  return findings;
}

}  // namespace libra::lint
