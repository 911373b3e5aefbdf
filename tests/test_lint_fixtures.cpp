// Self-tests for the libra-lint lexical backend: every check gets a fire
// fixture, a no-fire fixture, and suppression-grammar coverage, driven
// in-process through analyze_content with virtual src/ rule paths (the
// fixtures live in tests/lint/fixtures/ and are never compiled or linted by
// the repo gate). LIBRA_LINT_FIXTURE_DIR is baked in by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace libra::lint {
namespace {

std::string fixture(const std::string& name) {
  const std::string path = std::string(LIBRA_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Analyzes a fixture under a virtual rule path with only `check` enabled
/// (plus the always-on bad-suppression meta-check). The fixture's own
/// declarations feed the SymbolIndex, as run_lexical would.
std::vector<Finding> run_fixture(const std::string& name,
                                 const std::string& rule_path, Check check) {
  const std::string content = fixture(name);
  SymbolIndex index;
  index_file(rule_path, content, &index);
  LintOptions opt;
  opt.checks.push_back(check);
  return analyze_content(rule_path, content, opt, &index);
}

long count_of(const std::vector<Finding>& fs, Check c, bool suppressed) {
  long n = 0;
  for (const auto& f : fs)
    if (f.check == c && f.suppressed == suppressed) ++n;
  return n;
}

// ---- nondeterminism-source ----

TEST(LintNondeterminism, FiresOnEverySource) {
  const auto fs = run_fixture("nondet_fire.cpp", "src/sim/nondet_fire.cpp",
                              Check::kNondeterminismSource);
  // rand, getenv, steady_clock, random_device, hash<T*>.
  EXPECT_EQ(count_of(fs, Check::kNondeterminismSource, false), 5);
  EXPECT_EQ(count_of(fs, Check::kBadSuppression, false), 0);
}

TEST(LintNondeterminism, CleanOnSeededRngAndSimClock) {
  const auto fs = run_fixture("nondet_clean.cpp", "src/sim/nondet_clean.cpp",
                              Check::kNondeterminismSource);
  EXPECT_TRUE(fs.empty());
}

TEST(LintNondeterminism, OnlyAppliesToSimCorePaths) {
  // Same content under src/exp/ (timing code is allowlisted by path).
  const auto fs = run_fixture("nondet_fire.cpp", "src/exp/nondet_fire.cpp",
                              Check::kNondeterminismSource);
  EXPECT_TRUE(fs.empty());
}

// ---- unordered-iteration ----

TEST(LintUnordered, FiresOnRangeForAndIteratorWalk) {
  const auto fs = run_fixture("unordered_fire.cpp",
                              "src/sim/unordered_fire.cpp",
                              Check::kUnorderedIteration);
  EXPECT_EQ(count_of(fs, Check::kUnorderedIteration, false), 2);
}

TEST(LintUnordered, SortedSnapshotAllowAndOrderedMapAreClean) {
  const auto fs = run_fixture("unordered_clean.cpp",
                              "src/sim/unordered_clean.cpp",
                              Check::kUnorderedIteration);
  // The collect loop's finding exists but is suppressed by its ALLOW; the
  // std::map walk and the vector sort never fire.
  EXPECT_EQ(count_of(fs, Check::kUnorderedIteration, true), 1);
  EXPECT_EQ(count_of(fs, Check::kUnorderedIteration, false), 0);
  ASSERT_FALSE(fs.empty());
  EXPECT_FALSE(fs[0].suppression_reason.empty());
}

TEST(LintUnordered, AccessorCrossesFileBoundariesViaIndex) {
  // The accessor is declared in one file; the walk lives in another.
  SymbolIndex index;
  index_file("src/sim/host.h",
             "struct Host { std::unordered_map<int, double>& "
             "invocations_map(); };\n",
             &index);
  LintOptions opt;
  opt.checks.push_back(Check::kUnorderedIteration);
  const auto fs = analyze_content(
      "src/core/walker.cpp",
      "inline double sum(Host& host) {\n"
      "  double t = 0.0;\n"
      "  for (const auto& [id, v] : host.invocations_map()) t += v;\n"
      "  return t;\n"
      "}\n",
      opt, &index);
  EXPECT_EQ(count_of(fs, Check::kUnorderedIteration, false), 1);
}

TEST(LintUnordered, SeesThroughTrailingGuardedByAnnotation) {
  // One plain and one annotated member, each walked by a range-for: the
  // annotation between the annotated member's name and its `;` must not
  // hide it from the index.
  const std::string content =
      "#include <unordered_map>\n"
      "class Probe {\n"
      " public:\n"
      "  double sum() const {\n"
      "    double t = 0.0;\n"
      "    for (const auto& [k, v] : plain_) t += v;\n"
      "    for (const auto& [k, v] : guarded_) t += v;\n"
      "    return t;\n"
      "  }\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  std::unordered_map<int, double> plain_;\n"
      "  std::unordered_map<int, double> guarded_ LIBRA_GUARDED_BY(mu_);\n"
      "};\n";
  SymbolIndex index;
  index_file("src/core/probe.h", content, &index);
  LintOptions opt;
  opt.checks.push_back(Check::kUnorderedIteration);
  const auto fs = analyze_content("src/core/probe.h", content, opt, &index);
  EXPECT_EQ(count_of(fs, Check::kUnorderedIteration, false), 2);
}

// ---- guarded-by-coverage ----

TEST(LintGuardedBy, FiresOnUnannotatedMembersAndRawStdMutex) {
  const auto fs = run_fixture("guarded_fire.cpp", "src/sim/guarded_fire.cpp",
                              Check::kGuardedByCoverage);
  // total_ and name_ unannotated in the util::Mutex owner, plus Legacy's raw
  // std::mutex member.
  EXPECT_EQ(count_of(fs, Check::kGuardedByCoverage, false), 3);
}

TEST(LintGuardedBy, AnnotatedAndExemptMembersAreClean) {
  const auto fs = run_fixture("guarded_clean.cpp", "src/sim/guarded_clean.cpp",
                              Check::kGuardedByCoverage);
  EXPECT_TRUE(fs.empty());
}

// ---- bare-assert ----

TEST(LintBareAssert, FiresOnAssertCall) {
  const auto fs = run_fixture("assert_fire.cpp", "src/sim/assert_fire.cpp",
                              Check::kBareAssert);
  EXPECT_EQ(count_of(fs, Check::kBareAssert, false), 1);
}

TEST(LintBareAssert, AuditCheckAndLookalikeIdentifiersAreClean) {
  const auto fs = run_fixture("assert_clean.cpp", "src/sim/assert_clean.cpp",
                              Check::kBareAssert);
  EXPECT_TRUE(fs.empty());
}

TEST(LintBareAssert, OnlyAppliesUnderSrc) {
  const auto fs = run_fixture("assert_fire.cpp", "bench/assert_fire.cpp",
                              Check::kBareAssert);
  EXPECT_TRUE(fs.empty());
}

// ---- ledger-narrowing ----

TEST(LintLedger, FiresOnFloatCastsAndImplicitNarrowing) {
  const auto fs =
      run_fixture("ledger_fire.cpp", "src/core/harvest_pool_fixture.cpp",
                  Check::kLedgerNarrowing);
  // One float keyword, two C-style casts, two implicit narrowing decls (the
  // `cores` line carries a cast finding and a narrowing finding).
  EXPECT_EQ(count_of(fs, Check::kLedgerNarrowing, false), 5);
}

TEST(LintLedger, ExplicitConversionsAreClean) {
  const auto fs =
      run_fixture("ledger_clean.cpp", "src/core/harvest_pool_fixture.cpp",
                  Check::kLedgerNarrowing);
  EXPECT_TRUE(fs.empty());
}

TEST(LintLedger, OnlyAppliesToLedgerFiles) {
  const auto fs = run_fixture("ledger_fire.cpp", "src/core/scheduler_extra.cpp",
                              Check::kLedgerNarrowing);
  EXPECT_TRUE(fs.empty());
}

// ---- flat-hot-path ----

TEST(LintFlatHotPath, FiresOnMapMembersIncludingNested) {
  // unordered_map member, std::map member, vector-of-maps member; the local
  // scratch map and the flat vector member stay clean. The scheduler's
  // per-function sticky salt, the control plane's queue tracking, the
  // coverage code and the event queue are hot-path members too.
  for (const char* path :
       {"src/sim/engine.h", "src/core/scheduler.h",
        "src/sim/ctrl/control_plane.h", "src/core/coverage.cpp",
        "src/sim/event_queue.h"}) {
    SCOPED_TRACE(path);
    const auto fs = run_fixture("flathot_fire.cpp", path, Check::kFlatHotPath);
    EXPECT_EQ(count_of(fs, Check::kFlatHotPath, false), 3);
  }
}

TEST(LintFlatHotPath, FiresOnSetMembersOfEveryFlavour) {
  const auto fs = run_fixture("flathot_set_fire.cpp",
                              "src/sim/cluster_state.h", Check::kFlatHotPath);
  // set, unordered_set, multiset, unordered_multiset and a vector of
  // unordered_sets; the local set and the sorted-vector member stay clean.
  EXPECT_EQ(count_of(fs, Check::kFlatHotPath, false), 5);
  bool named_placed = false;
  for (const auto& f : fs)
    named_placed = named_placed ||
                   f.message.find("std::unordered_set member 'placed_'") !=
                       std::string::npos;
  EXPECT_TRUE(named_placed);
}

TEST(LintFlatHotPath, SetMembersOutsideDesignatedFilesAreClean) {
  const auto fs = run_fixture("flathot_set_fire.cpp", "src/core/libra_policy.h",
                              Check::kFlatHotPath);
  EXPECT_TRUE(fs.empty());
}

TEST(LintFlatHotPath, FlatMembersAndReasonedAllowAreClean) {
  const auto fs = run_fixture("flathot_clean.cpp", "src/core/harvest_pool.h",
                              Check::kFlatHotPath);
  EXPECT_EQ(count_of(fs, Check::kFlatHotPath, false), 0);
  EXPECT_EQ(count_of(fs, Check::kFlatHotPath, true), 1);
  ASSERT_FALSE(fs.empty());
  EXPECT_FALSE(fs[0].suppression_reason.empty());
}

TEST(LintFlatHotPath, OnlyAppliesToDesignatedFiles) {
  // The same map members outside the hot-path file list are policy-free:
  // libra_policy.h keeps its bookkeeping maps without ALLOW churn.
  const auto fs = run_fixture("flathot_fire.cpp", "src/core/libra_policy.h",
                              Check::kFlatHotPath);
  EXPECT_TRUE(fs.empty());
}

// ---- suppression grammar ----

TEST(LintSuppression, ReasonedAllowCoversNextLineOnly) {
  const auto fs = run_fixture("suppress.cpp", "src/sim/suppress.cpp",
                              Check::kNondeterminismSource);
  // steady_clock under the reasoned ALLOW: reported but suppressed.
  EXPECT_EQ(count_of(fs, Check::kNondeterminismSource, true), 1);
  // The uncovered rand() calls (no ALLOW, malformed ALLOWs) stay live.
  EXPECT_EQ(count_of(fs, Check::kNondeterminismSource, false), 3);
  // Missing reason + unknown check name: one bad-suppression each, and
  // bad-suppression itself can never be suppressed.
  EXPECT_EQ(count_of(fs, Check::kBadSuppression, false), 2);
  EXPECT_EQ(count_of(fs, Check::kBadSuppression, true), 0);
}

TEST(LintSuppression, FileWideAllowCoversWholeFile) {
  const auto fs = run_fixture("suppress_filewide.cpp",
                              "src/sim/suppress_filewide.cpp",
                              Check::kBareAssert);
  EXPECT_EQ(count_of(fs, Check::kBareAssert, true), 2);
  EXPECT_EQ(count_of(fs, Check::kBareAssert, false), 0);
  EXPECT_EQ(count_of(fs, Check::kBadSuppression, false), 0);
}

// ---- JSON artifact shape ----

TEST(LintJson, ArtifactContainsCheckFileLineAndSuppression) {
  RunResult result;
  result.findings.push_back({Check::kBareAssert, "src/sim/x.cpp", 12,
                             "msg \"quoted\"", false, ""});
  result.findings.push_back({Check::kUnorderedIteration, "src/core/y.h", 3,
                             "walk", true, "sorted before use"});
  result.files_scanned = 2;
  result.unsuppressed = 1;
  const std::string json = findings_to_json(result, "lexical");
  EXPECT_NE(json.find("\"backend\": \"lexical\""), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"bare-assert\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 12"), std::string::npos);
  EXPECT_NE(json.find("msg \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"sorted before use\""), std::string::npos);
}

}  // namespace
}  // namespace libra::lint
