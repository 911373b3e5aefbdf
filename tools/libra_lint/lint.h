// libra-lint: repo-specific determinism & concurrency linter (see DESIGN.md
// §5i). Five checks encode the invariants the golden-digest replay tests and
// the conservation ledger rely on:
//
//   nondeterminism-source   no std::rand / std::random_device / wall clocks /
//                           getenv / pointer-value hashing in the sim core
//                           (src/sim|core|gen|workload); all randomness flows
//                           through util::Rng's forked seeded substreams.
//   unordered-iteration     no range-for / iterator walks over
//                           std::unordered_{map,set} anywhere in src/ without
//                           either a sorted snapshot or an explicit ALLOW —
//                           hash-order must never leak into digests, metrics
//                           or exports.
//   guarded-by-coverage     any class owning a util::Mutex must annotate every
//                           mutable data member with LIBRA_GUARDED_BY /
//                           LIBRA_PT_GUARDED_BY; raw std::mutex members are
//                           flagged (clang TSA cannot prove them).
//   bare-assert             assert( in src/ must be LIBRA_AUDIT_CHECK (live in
//                           all build types, reports engine context).
//   ledger-narrowing        no float, C-style numeric casts, or implicit
//                           double->integer narrowing in the harvest-pool /
//                           conservation-ledger arithmetic files.
//   flat-hot-path           no std map or set data members (ordered or
//                           unordered, multi or not) in the designated
//                           hot-path files (engine, event_queue,
//                           cluster_state, sharded_controller,
//                           ctrl/control_plane, harvest_pool, scheduler,
//                           coverage): per-decision state lives in flat
//                           index-addressed vectors/slabs or sorted
//                           vectors (DESIGN.md §5l); such a member
//                           needs a reasoned ALLOW.
//
// Suppressions: `// LIBRA_LINT_ALLOW(<check>): <reason>` on the finding line
// or the line directly above; `LIBRA_LINT_ALLOW_FILE(<check>): <reason>`
// anywhere in a file covers the whole file. The reason is mandatory — a
// missing reason or unknown check name is itself a finding (bad-suppression)
// and cannot be suppressed.
//
// Two backends share this interface: the always-available lexical backend
// (token-level, zero dependencies — what enforces the gate in environments
// without LLVM dev packages) and the clang AST-matcher backend
// (clang_backend.cpp, compiled only when find_package(Clang) succeeds).
#pragma once

#include <map>
#include <string>
#include <vector>

namespace libra::lint {

enum class Check {
  kNondeterminismSource,
  kUnorderedIteration,
  kGuardedByCoverage,
  kBareAssert,
  kLedgerNarrowing,
  kFlatHotPath,
  kBadSuppression,  // meta-check: malformed LIBRA_LINT_ALLOW comments
};

/// Kebab-case name as used in ALLOW comments, --checks and JSON output.
const char* check_name(Check c);
/// Parses a kebab-case name; returns false for unknown names.
bool parse_check(const std::string& name, Check* out);
/// Every real check (excludes bad-suppression, which is always on).
std::vector<Check> all_checks();

struct Finding {
  Check check = Check::kBadSuppression;
  std::string file;  // rule-path (repo-relative, forward slashes)
  int line = 0;
  std::string message;
  bool suppressed = false;
  std::string suppression_reason;  // set when suppressed
};

struct LintOptions {
  /// Checks to run (bad-suppression always runs). Empty = all.
  std::vector<Check> checks;
};

/// One LIBRA_LINT_ALLOW comment, parsed.
struct Suppression {
  Check check = Check::kBadSuppression;
  int line = 0;       // line the comment starts on
  bool file_wide = false;
  std::string reason;
};

/// Scans comments for LIBRA_LINT_ALLOW / LIBRA_LINT_ALLOW_FILE. Malformed
/// ones (missing reason, unknown check) are reported into `errors`.
std::vector<Suppression> parse_suppressions(const std::string& content,
                                            std::vector<Finding>* errors,
                                            const std::string& rule_path);

/// Marks findings covered by a suppression (same check; same line or the
/// line directly below the comment, or file-wide). bad-suppression findings
/// are never suppressible.
void apply_suppressions(const std::vector<Suppression>& sups,
                        std::vector<Finding>* findings);

/// Cross-file symbol knowledge for unordered-iteration: which identifiers
/// name unordered containers, and which functions return them. Built from a
/// whole-repo pre-pass so `for (x : host_.invocations_map())` is caught in a
/// different file than the accessor's declaration.
struct SymbolIndex {
  /// Accessor/function names whose return type mentions an unordered
  /// container, visible repo-wide (accessors cross file boundaries).
  std::map<std::string, std::string> unordered_fns;  // name -> declaring file
  /// Variable/member names with unordered type, scoped per declaring file
  /// stem (e.g. "engine" covers engine.h + engine.cpp) so a vector named
  /// state_ in one class doesn't collide with an unordered map named state_
  /// in another.
  std::map<std::string, std::vector<std::string>> unordered_vars_by_stem;

  /// Names visible when analyzing `rule_path` (own stem + repo-wide fns).
  bool is_unordered_fn(const std::string& name) const;
  bool is_unordered_var(const std::string& stem, const std::string& name) const;
};

/// Feeds one file's declarations into the index. `rule_path` must be the
/// repo-relative path (its stem scopes variable names).
void index_file(const std::string& rule_path, const std::string& content,
                SymbolIndex* index);

/// Runs the lexical backend over one file's content. `rule_path` decides
/// which checks apply (directory rules above); suppressions are parsed and
/// applied. The index may be null (unordered-iteration then only sees
/// same-file declarations and `unordered_*` spelled inline).
std::vector<Finding> analyze_content(const std::string& rule_path,
                                     const std::string& content,
                                     const LintOptions& opt,
                                     const SymbolIndex* index);

// ---- path rules ----

/// Repo-relative rule path: the substring starting at the last "src/" (or
/// "tests/", "bench/", "tools/", "examples/") component; the path unchanged
/// when already relative.
std::string rule_path_of(const std::string& path);
/// nondeterminism-source scope: src/sim|core|gen|workload (bench/exp timing
/// code is allowlisted by exclusion).
bool in_sim_core(const std::string& rule_path);
/// ledger-narrowing scope: harvest-pool / conservation-ledger arithmetic.
bool in_ledger_files(const std::string& rule_path);
/// flat-hot-path scope: the per-decision hot-path files refactored to flat
/// index-addressed storage in §5l.
bool in_hot_path_files(const std::string& rule_path);
/// All other checks: anything under src/.
bool in_src(const std::string& rule_path);

// ---- driver helpers (file IO; used by main and the repo self-lint test) ----

/// Parses compile_commands.json and returns the distinct "file" entries
/// (absolute paths, deduplicated, sorted). Minimal JSON subset parser; throws
/// std::runtime_error on unreadable input.
std::vector<std::string> compile_db_files(const std::string& db_path);

struct RunResult {
  std::vector<Finding> findings;  // suppressed ones included, flag set
  int files_scanned = 0;
  long unsuppressed = 0;
};

/// Lexical backend over a file list: builds the SymbolIndex pre-pass, then
/// analyzes each file. Files whose rule path is outside src/ are skipped
/// (bench/tests/examples are not lint targets).
RunResult run_lexical(const std::vector<std::string>& files,
                      const LintOptions& opt);

/// Serializes findings as the JSON artifact CI uploads.
std::string findings_to_json(const RunResult& result,
                             const std::string& backend);

#ifdef LIBRA_LINT_HAVE_CLANG
/// AST-matcher backend (clang_backend.cpp): precise type-based matching over
/// the compile DB. Returns false (with `error` set) when the tool failed to
/// run; findings land in `result` with suppressions already applied.
bool run_ast_backend(const std::string& db_path,
                     const std::vector<std::string>& files,
                     const LintOptions& opt, RunResult* result,
                     std::string* error);
#endif

}  // namespace libra::lint
