// AST-matcher backend: the precise half of libra-lint, compiled only when
// find_package(Clang) succeeds (LIBRA_LINT_HAVE_CLANG). It parses every src/
// TU from the compile DB with LibTooling and matches on canonical types, so
// it sees through typedefs, auto, references and member accessors that the
// lexical backend can only approximate by name:
//
//   nondeterminism-source   calls to banned libc/std functions, any
//                           ::now() on system/steady clocks (including via
//                           the high_resolution_clock alias), std::random_
//                           device uses, std::hash<T*> specializations,
//                           std::thread / std::jthread spelled as a type
//                           (not as the scope of a static member, as in
//                           std::thread::hardware_concurrency()), calls to
//                           std::async.
//   unordered-iteration     range-for or .begin()/.cbegin() where the
//                           operand's CANONICAL type is an unordered
//                           container — catches `auto& m = host.map();`.
//   guarded-by-coverage     FieldDecl attribute walk: classes owning a
//                           util::Mutex must carry clang's GuardedByAttr /
//                           PtGuardedByAttr on every non-exempt field (the
//                           LIBRA_GUARDED_BY macros expand to the real
//                           attributes under clang, so the check reads the
//                           AST, not the spelling); raw std::mutex fields
//                           are flagged.
//   ledger-narrowing        `float` declarations, C-style arithmetic casts,
//                           and implicit CK_FloatingToIntegral conversions
//                           in the ledger files.
//   bare-assert             delegated to the shared lexical pass — assert is
//                           a macro and leaves no distinct AST node, and the
//                           token scan is already exact.
//   flat-hot-path           delegated to the shared lexical pass — the
//                           designated file list and the member-declaration
//                           grammar are what the check is about; spelled-out
//                           map and set members (ordered, unordered, multi)
//                           need no type resolution, so this backend flags
//                           exactly the members the lexical one does.
//
// Findings are deduplicated by (file, line, check) across TUs (headers are
// parsed once per includer), filtered by the same rule-path scoping as the
// lexical backend, and run through the same LIBRA_LINT_ALLOW suppression
// grammar, so both backends agree on what "clean" means.
#ifdef LIBRA_LINT_HAVE_CLANG

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "clang/AST/Attr.h"
#include "clang/AST/DeclCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Tooling/ArgumentsAdjusters.h"
#include "clang/Tooling/JSONCompilationDatabase.h"
#include "clang/Tooling/Tooling.h"

#include "lint.h"

namespace libra::lint {
namespace {

using clang::ast_matchers::MatchFinder;
namespace am = clang::ast_matchers;

bool mentions(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string canonical_type_str(clang::QualType t) {
  if (t.isNull()) return {};
  return t.getNonReferenceType().getCanonicalType().getUnqualifiedType()
      .getAsString();
}

bool is_unordered_container(const std::string& type_str) {
  return mentions(type_str, "unordered_map<") ||
         mentions(type_str, "unordered_multimap<") ||
         mentions(type_str, "unordered_set<") ||
         mentions(type_str, "unordered_multiset<");
}

/// Collects raw findings from the match callbacks: resolves locations to
/// rule paths, applies per-check path scoping, drops system headers, and
/// dedupes across TUs (every includer re-parses the same header).
class Sink {
 public:
  explicit Sink(const LintOptions& opt) {
    if (opt.checks.empty()) {
      for (Check c : all_checks()) enabled_.insert(static_cast<int>(c));
    } else {
      for (Check c : opt.checks) enabled_.insert(static_cast<int>(c));
    }
  }

  bool enabled(Check c) const {
    return enabled_.count(static_cast<int>(c)) != 0;
  }

  void add(Check check, clang::SourceLocation loc,
           const clang::SourceManager& sm, std::string message) {
    if (!enabled(check) || loc.isInvalid()) return;
    // Expansion loc: a finding inside a macro points at the use site, where
    // the ALLOW comment (if any) lives.
    const clang::SourceLocation at = sm.getExpansionLoc(loc);
    if (sm.isInSystemHeader(at)) return;
    const clang::PresumedLoc p = sm.getPresumedLoc(at);
    if (p.isInvalid() || p.getFilename() == nullptr) return;
    const std::string abs_path = p.getFilename();
    const std::string rp = rule_path_of(abs_path);
    if (!in_src(rp)) return;
    if (check == Check::kNondeterminismSource && !in_sim_core(rp)) return;
    if (check == Check::kLedgerNarrowing && !in_ledger_files(rp)) return;
    const int line = static_cast<int>(p.getLine());
    if (!seen_.insert({rp, line, static_cast<int>(check)}).second) return;
    Finding f;
    f.check = check;
    f.file = rp;
    f.line = line;
    f.message = std::move(message);
    findings_.push_back(std::move(f));
    paths_[rp] = abs_path;
  }

  std::vector<Finding>& findings() { return findings_; }
  const std::map<std::string, std::string>& paths() const { return paths_; }

 private:
  std::set<int> enabled_;
  std::set<std::tuple<std::string, int, int>> seen_;
  std::vector<Finding> findings_;
  std::map<std::string, std::string> paths_;  // rule path -> absolute path
};

/// MatchFinder callback adapter over a plain function object.
class Callback : public MatchFinder::MatchCallback {
 public:
  using Fn = std::function<void(const MatchFinder::MatchResult&)>;
  explicit Callback(Fn fn) : fn_(std::move(fn)) {}
  void run(const MatchFinder::MatchResult& result) override { fn_(result); }

 private:
  Fn fn_;
};

/// Owns the callbacks (MatchFinder keeps raw pointers) and registers every
/// matcher once; shared across all TUs so the Sink dedupe spans the run.
class Matchers {
 public:
  Matchers(Sink* sink, MatchFinder* finder) : sink_(sink) {
    // ---- nondeterminism-source ----
    add(finder,
        am::callExpr(
            am::callee(am::functionDecl(am::hasAnyName(
                "::rand", "::std::rand", "::srand", "::std::srand",
                "::getenv", "::std::getenv", "::secure_getenv",
                "::gettimeofday", "::clock_gettime", "::time", "::std::time",
                "::localtime", "::std::localtime", "::gmtime",
                "::std::gmtime"))))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::CallExpr>("x");
          std::string name = "<banned function>";
          if (const auto* fd = e->getDirectCallee())
            name = fd->getQualifiedNameAsString();
          sink_->add(Check::kNondeterminismSource, e->getBeginLoc(),
                     *r.SourceManager,
                     "call to " + name +
                         " in the sim core; all randomness/time must flow "
                         "through util::Rng substreams and the event clock");
        });
    add(finder,
        am::callExpr(am::callee(am::cxxMethodDecl(
                         am::hasName("now"),
                         am::ofClass(am::hasAnyName(
                             "::std::chrono::system_clock",
                             "::std::chrono::steady_clock")))))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::CallExpr>("x");
          sink_->add(Check::kNondeterminismSource, e->getBeginLoc(),
                     *r.SourceManager,
                     "wall-clock now() in the sim core; sim time comes from "
                     "the event queue, never the host clock");
        });
    const auto random_device =
        am::cxxRecordDecl(am::hasName("::std::random_device"));
    add(finder, am::varDecl(am::hasType(random_device)).bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* d = r.Nodes.getNodeAs<clang::VarDecl>("x");
          sink_->add(Check::kNondeterminismSource, d->getLocation(),
                     *r.SourceManager,
                     "std::random_device in the sim core; seeds come from "
                     "the run config via util::Rng");
        });
    add(finder,
        am::cxxTemporaryObjectExpr(am::hasType(random_device)).bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::Expr>("x");
          sink_->add(Check::kNondeterminismSource, e->getBeginLoc(),
                     *r.SourceManager,
                     "std::random_device in the sim core; seeds come from "
                     "the run config via util::Rng");
        });
    const auto pointer_hash = am::classTemplateSpecializationDecl(
        am::hasName("::std::hash"),
        am::hasTemplateArgument(0, am::refersToType(am::pointerType())));
    add(finder, am::varDecl(am::hasType(pointer_hash)).bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* d = r.Nodes.getNodeAs<clang::VarDecl>("x");
          sink_->add(Check::kNondeterminismSource, d->getLocation(),
                     *r.SourceManager,
                     "std::hash over a pointer value; addresses vary per run "
                     "and must never order or key anything");
        });

    const auto thread_record =
        am::cxxRecordDecl(am::hasAnyName("::std::thread", "::std::jthread"));
    add(finder,
        am::typeLoc(am::loc(am::qualType(am::hasDeclaration(thread_record))),
                    am::unless(am::hasParent(am::nestedNameSpecifierLoc())))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* t = r.Nodes.getNodeAs<clang::TypeLoc>("x");
          sink_->add(Check::kNondeterminismSource, t->getBeginLoc(),
                     *r.SourceManager,
                     "std::thread / std::jthread in the sim core; the engine "
                     "runs on one thread, the event loop, so parallel work "
                     "needs a reasoned ALLOW");
        });
    add(finder,
        am::callExpr(am::callee(am::functionDecl(am::hasName("::std::async"))))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::CallExpr>("x");
          sink_->add(Check::kNondeterminismSource, e->getBeginLoc(),
                     *r.SourceManager,
                     "std::async in the sim core; the engine runs on one "
                     "thread, the event loop, so parallel work needs a "
                     "reasoned ALLOW");
        });

    // ---- unordered-iteration ----
    add(finder, am::cxxForRangeStmt().bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* s = r.Nodes.getNodeAs<clang::CXXForRangeStmt>("x");
          const auto* init = s->getRangeInit();
          if (!init) return;
          const std::string t = canonical_type_str(init->getType());
          if (!is_unordered_container(t)) return;
          sink_->add(Check::kUnorderedIteration, s->getBeginLoc(),
                     *r.SourceManager,
                     "range-for over " + t +
                         "; hash order must not leak — snapshot and sort, "
                         "or ALLOW with a reason");
        });
    add(finder,
        am::cxxMemberCallExpr(am::callee(am::cxxMethodDecl(
                                  am::hasAnyName("begin", "cbegin"))))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::CXXMemberCallExpr>("x");
          const auto* obj = e->getImplicitObjectArgument();
          if (!obj) return;
          const std::string t = canonical_type_str(obj->getType());
          if (!is_unordered_container(t)) return;
          sink_->add(Check::kUnorderedIteration, e->getBeginLoc(),
                     *r.SourceManager,
                     "iterator walk over " + t +
                         "; hash order must not leak — snapshot and sort, "
                         "or ALLOW with a reason");
        });

    // ---- guarded-by-coverage ----
    add(finder,
        am::cxxRecordDecl(am::isDefinition(),
                          am::unless(am::isExpansionInSystemHeader()))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          check_record(r.Nodes.getNodeAs<clang::CXXRecordDecl>("x"),
                       *r.SourceManager);
        });

    // ---- ledger-narrowing ----
    add(finder, am::declaratorDecl(am::hasType(am::asString("float")))
                    .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* d = r.Nodes.getNodeAs<clang::DeclaratorDecl>("x");
          sink_->add(Check::kLedgerNarrowing, d->getLocation(),
                     *r.SourceManager,
                     "float in ledger arithmetic; the conservation audits "
                     "assume double precision throughout");
        });
    add(finder, am::cStyleCastExpr().bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::CStyleCastExpr>("x");
          const clang::QualType to = e->getTypeAsWritten();
          if (to.isNull() || !to->isArithmeticType()) return;
          sink_->add(Check::kLedgerNarrowing, e->getBeginLoc(),
                     *r.SourceManager,
                     "C-style numeric cast in ledger arithmetic; use "
                     "static_cast so conversions are searchable and "
                     "intentional");
        });
    add(finder,
        am::implicitCastExpr(
            am::hasCastKind(clang::CK_FloatingToIntegral))
            .bind("x"),
        [this](const MatchFinder::MatchResult& r) {
          const auto* e = r.Nodes.getNodeAs<clang::ImplicitCastExpr>("x");
          sink_->add(Check::kLedgerNarrowing, e->getBeginLoc(),
                     *r.SourceManager,
                     "implicit floating->integer narrowing in ledger "
                     "arithmetic; make the rounding explicit (static_cast "
                     "after std::lround/floor/ceil)");
        });
  }

 private:
  void add(MatchFinder* finder, const am::StatementMatcher& m,
           Callback::Fn fn) {
    callbacks_.push_back(std::make_unique<Callback>(std::move(fn)));
    finder->addMatcher(m, callbacks_.back().get());
  }
  void add(MatchFinder* finder, const am::DeclarationMatcher& m,
           Callback::Fn fn) {
    callbacks_.push_back(std::make_unique<Callback>(std::move(fn)));
    finder->addMatcher(m, callbacks_.back().get());
  }
  void add(MatchFinder* finder, const am::TypeLocMatcher& m,
           Callback::Fn fn) {
    callbacks_.push_back(std::make_unique<Callback>(std::move(fn)));
    finder->addMatcher(m, callbacks_.back().get());
  }

  /// guarded-by-coverage over one class definition: mirrors the lexical
  /// backend's member classification, but reads the real clang attributes.
  void check_record(const clang::CXXRecordDecl* rec,
                    const clang::SourceManager& sm) {
    if (!rec || !rec->isCompleteDefinition()) return;
    bool owns_util_mutex = false;
    for (const clang::FieldDecl* f : rec->fields()) {
      if (mentions(canonical_type_str(f->getType()), "libra::util::Mutex"))
        owns_util_mutex = true;
    }
    for (const clang::FieldDecl* f : rec->fields()) {
      const std::string t = canonical_type_str(f->getType());
      if (mentions(t, "std::mutex") && !mentions(t, "std::mutex>")) {
        sink_->add(Check::kGuardedByCoverage, f->getLocation(), sm,
                   "raw std::mutex member '" + f->getNameAsString() +
                       "'; use util::Mutex so clang thread-safety analysis "
                       "can prove the lock discipline");
        continue;
      }
      if (!owns_util_mutex) continue;
      if (f->hasAttr<clang::GuardedByAttr>() ||
          f->hasAttr<clang::PtGuardedByAttr>())
        continue;
      if (mentions(t, "libra::util::Mutex")) continue;  // the lock itself
      const clang::QualType qt = f->getType();
      if (qt.isConstQualified() || qt->isReferenceType()) continue;
      if (mentions(t, "std::atomic<") || mentions(t, "atomic_"))
        continue;
      if (mentions(t, "std::condition_variable")) continue;
      sink_->add(Check::kGuardedByCoverage, f->getLocation(), sm,
                 "member '" + f->getNameAsString() + "' of mutex-owning " +
                     rec->getNameAsString() +
                     " lacks LIBRA_GUARDED_BY (const/atomic/reference "
                     "members are exempt)");
    }
  }

  Sink* sink_;
  std::vector<std::unique_ptr<Callback>> callbacks_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

bool run_ast_backend(const std::string& db_path,
                     const std::vector<std::string>& files,
                     const LintOptions& opt, RunResult* result,
                     std::string* error) {
  if (db_path.empty()) {
    *error = "the ast backend needs a compile DB (-p or --compile-db)";
    return false;
  }
  std::string load_err;
  const auto db = clang::tooling::JSONCompilationDatabase::loadFromFile(
      db_path, load_err,
      clang::tooling::JSONCommandLineSyntax::AutoDetect);
  if (!db) {
    *error = "cannot load " + db_path + ": " + load_err;
    return false;
  }

  std::vector<std::string> tus;
  for (const auto& f : db->getAllFiles())
    if (in_src(rule_path_of(f))) tus.push_back(f);
  std::sort(tus.begin(), tus.end());
  tus.erase(std::unique(tus.begin(), tus.end()), tus.end());
  if (tus.empty()) {
    *error = "no src/ translation units in " + db_path;
    return false;
  }

  clang::tooling::ClangTool tool(*db, tus);
  // The checks are ours; compiler diagnostics only add noise (and the DB's
  // warning flags may not all exist on the linked clang).
  tool.appendArgumentsAdjuster(
      clang::tooling::getInsertArgumentAdjuster("-w"));
  tool.appendArgumentsAdjuster(
      clang::tooling::getInsertArgumentAdjuster("-Wno-everything"));
#ifdef LIBRA_LINT_CLANG_RESOURCE_DIR
  // libra-lint is not installed next to clang's builtin headers, so point
  // the parser at the resource dir the build found (stddef.h etc.).
  tool.appendArgumentsAdjuster(clang::tooling::getInsertArgumentAdjuster(
      "-resource-dir=" LIBRA_LINT_CLANG_RESOURCE_DIR));
#endif

  Sink sink(opt);
  MatchFinder finder;
  Matchers matchers(&sink, &finder);
  const int status =
      tool.run(clang::tooling::newFrontendActionFactory(&finder).get());
  if (status != 0) {
    *error = "clang failed to parse the compile DB's TUs (status " +
             std::to_string(status) +
             "); fix the build first — the AST checks need parseable code";
    return false;
  }

  // Every src/ input file gets a suppression/bare-assert pass, plus any
  // file an AST finding landed in (headers pulled in via #include).
  std::map<std::string, std::string> paths;  // rule path -> absolute
  for (const auto& f : files) {
    const std::string rp = rule_path_of(f);
    if (in_src(rp)) paths.emplace(rp, f);
  }
  for (const auto& [rp, abs] : sink.paths()) paths.emplace(rp, abs);

  std::map<std::string, std::vector<Finding>> by_file;
  for (auto& f : sink.findings()) by_file[f.file].push_back(std::move(f));

  std::vector<Finding> all;
  for (const auto& [rp, abs] : paths) {
    const std::string content = read_file(abs);
    auto& findings = by_file[rp];
    std::vector<Finding> bad;
    const auto sups = parse_suppressions(content, &bad, rp);
    apply_suppressions(sups, &findings);
    for (auto& f : findings) all.push_back(std::move(f));
    for (auto& f : bad) all.push_back(std::move(f));
    if (sink.enabled(Check::kBareAssert)) {
      // assert is a macro — no distinct AST node survives expansion; the
      // token-level check is exact, so both backends share it. Its output
      // repeats the bad-suppression findings parsed above; the dedupe
      // below drops the copies.
      LintOptions bare;
      bare.checks.push_back(Check::kBareAssert);
      for (auto& f : analyze_content(rp, content, bare, nullptr))
        all.push_back(std::move(f));
    }
    if (sink.enabled(Check::kFlatHotPath)) {
      // Same sharing rationale: the lexical member-declaration scan is the
      // check's definition, so both backends run it verbatim.
      LintOptions flat;
      flat.checks.push_back(Check::kFlatHotPath);
      for (auto& f : analyze_content(rp, content, flat, nullptr))
        all.push_back(std::move(f));
    }
  }

  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line) < std::tie(b.file, b.line) ||
           (a.file == b.file && a.line == b.line &&
            std::string(check_name(a.check)) < check_name(b.check));
  });
  all.erase(std::unique(all.begin(), all.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.check == b.check;
                        }),
            all.end());

  result->findings = std::move(all);
  result->files_scanned = static_cast<int>(paths.size());
  result->unsuppressed = 0;
  for (const auto& f : result->findings)
    if (!f.suppressed) ++result->unsuppressed;
  return true;
}

}  // namespace libra::lint

#endif  // LIBRA_LINT_HAVE_CLANG
