// The audit framework, the node quiescence checks and the invariant auditor
// — including the NEGATIVE tests: seeded violations must actually fire. A
// scoped failure handler observes the diagnostics instead of aborting (death
// tests are fragile under TSan), so every test here runs under every
// sanitizer configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "baselines/schedulers.h"
#include "exp/platforms.h"
#include "gen/synthetic_source.h"
#include "sim/chaos/fuzzer.h"
#include "sim/chaos/oracle.h"
#include "sim/chaos/scenario.h"
#include "core/harvest_pool.h"
#include "core/libra_policy.h"
#include "core/predictor.h"
#include "core/profiler.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "util/audit.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace libra {
namespace {

using sim::Resources;

/// Scoped failure handler: collects diagnostics instead of aborting, and
/// restores the previous handler (normally "abort") on destruction.
class AuditCapture {
 public:
  AuditCapture() {
    prev_ = util::audit::set_failure_handler(
        [this](const util::audit::Diagnostic& d) { diags_.push_back(d); });
  }
  ~AuditCapture() { util::audit::set_failure_handler(std::move(prev_)); }
  AuditCapture(const AuditCapture&) = delete;
  AuditCapture& operator=(const AuditCapture&) = delete;

  const std::vector<util::audit::Diagnostic>& diags() const { return diags_; }
  bool fired() const { return !diags_.empty(); }

 private:
  util::audit::FailureHandler prev_;
  std::vector<util::audit::Diagnostic> diags_;
};

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

std::shared_ptr<core::LibraPolicy> make_libra_policy() {
  core::ProfilerConfig pcfg;
  auto profiler = std::make_shared<core::Profiler>(pcfg, catalog());
  profiler->prewarm(*catalog(), 1234, 30);
  return core::LibraPolicy::with_coverage_scheduler(core::LibraPolicyConfig{},
                                                    profiler);
}

// ---------------------------------------------------------------------------
// Framework
// ---------------------------------------------------------------------------

TEST(AuditFramework, PassingCheckReportsNothing) {
  AuditCapture capture;
  LIBRA_AUDIT_CHECK(1 + 1 == 2, "never printed");
  EXPECT_FALSE(capture.fired());
}

TEST(AuditFramework, DiagnosticCarriesContextAndDetail) {
  AuditCapture capture;
  util::audit::set_context(42, 3.5);
  const int entry = 7;
  LIBRA_AUDIT_CHECK(entry < 0, "offending entry " << entry << " (cpu 2)");
  util::audit::set_context(-1, -1.0);

  ASSERT_EQ(capture.diags().size(), 1u);
  const auto& d = capture.diags()[0];
  EXPECT_EQ(d.event_id, 42);
  EXPECT_DOUBLE_EQ(d.sim_time, 3.5);
  EXPECT_EQ(d.check, "entry < 0");
  EXPECT_EQ(d.detail, "offending entry 7 (cpu 2)");
  EXPECT_NE(d.to_string().find("invariant violated"), std::string::npos);
  EXPECT_NE(d.to_string().find("event_id=42"), std::string::npos);
}

TEST(AuditFramework, FailureCounterAdvances) {
  AuditCapture capture;
  const long before = util::audit::failures_observed();
  LIBRA_AUDIT_CHECK(false, "counted");
  EXPECT_EQ(util::audit::failures_observed(), before + 1);
}

// ---------------------------------------------------------------------------
// Node quiescence (the former bare asserts in node.cpp)
// ---------------------------------------------------------------------------

TEST(NodeAudit, QuiescentNodePasses) {
  sim::Node node(0, {8.0, 8192.0}, /*num_shards=*/2);
  AuditCapture capture;
  node.check_quiescent();
  EXPECT_FALSE(capture.fired());
}

TEST(NodeAudit, LeftoverReservationFiresWithNodeState) {
  sim::Node node(3, {8.0, 8192.0}, /*num_shards=*/2);
  ASSERT_TRUE(node.try_reserve(1, {2.0, 512.0}));
  AuditCapture capture;
  node.check_quiescent();
  ASSERT_TRUE(capture.fired());
  // The diagnostic must name the node and its surviving allocation.
  const auto& d = capture.diags()[0];
  EXPECT_NE(d.detail.find("node=3"), std::string::npos) << d.detail;
  EXPECT_NE(d.detail.find("2"), std::string::npos) << d.detail;
}

TEST(NodeAudit, LeftoverRunningCountFires) {
  sim::Node node(5, {8.0, 8192.0}, 1);
  node.invocation_started();
  AuditCapture capture;
  node.check_quiescent();
  EXPECT_TRUE(capture.fired());
}

// ---------------------------------------------------------------------------
// Negative tests: seeded pool violations must fire
// ---------------------------------------------------------------------------

TEST(AuditNegative, SeededConservationViolationFiresOnAuditNow) {
  core::HarvestResourcePool pool;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.corrupt_for_audit_test(1, {1.0, 0.0});  // idle grows, ledger does not

  AuditCapture capture;
  pool.audit_now(1.0);
  ASSERT_TRUE(capture.fired());
  EXPECT_NE(capture.diags()[0].detail.find("source=1"), std::string::npos)
      << capture.diags()[0].detail;
}

TEST(AuditNegative, SeededViolationCaughtByNextMutation) {
  core::HarvestResourcePool pool;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.corrupt_for_audit_test(1, {0.5, 0.0});

  AuditCapture capture;
  // Any mutating operation re-runs the conservation audit.
  pool.put(2, {1.0, 64.0}, 20.0, 1.0);
  EXPECT_TRUE(capture.fired());
}

TEST(AuditNegative, HealthyPoolNeverFires) {
  core::HarvestResourcePool pool;
  AuditCapture capture;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.get({1.0, 128.0}, 9, 0.5);
  pool.reharvest(9, 1.0);
  pool.preempt_source(1, 2.0);
  pool.audit_now(3.0);
  EXPECT_FALSE(capture.fired());
}

// ---------------------------------------------------------------------------
// InvariantAuditor: pool-event path
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, ObservesEveryPoolMutation) {
  analysis::InvariantAuditor auditor;
  core::HarvestResourcePool pool;
  pool.set_event_listener(&auditor);

  AuditCapture capture;
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.get({1.0, 128.0}, 9, 0.5);
  pool.reharvest(9, 1.0);
  pool.preempt_source(1, 2.0);
  EXPECT_EQ(auditor.stats().pool_events, 4);
  EXPECT_FALSE(capture.fired());
}

TEST(InvariantAuditor, ListenerAttachesToFuturePools) {
  analysis::InvariantAuditor auditor;
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());
  // The pool for node 0 does not exist yet; it is created on first access
  // and must come back with the listener already installed.
  AuditCapture capture;
  policy->pool(0).put(1, {1.0, 128.0}, 5.0, 0.0);
  EXPECT_EQ(auditor.stats().pool_events, 1);
  EXPECT_FALSE(capture.fired());
}

// ---------------------------------------------------------------------------
// InvariantAuditor: engine-sweep path
// ---------------------------------------------------------------------------

TEST(InvariantAuditor, SweepsEveryEngineEventInLibraRun) {
  analysis::InvariantAuditor auditor;
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());

  auto cfg = exp::single_node_config();
  cfg.audit_hook = &auditor;

  const long failures_before = util::audit::failures_observed();
  sim::Engine engine(cfg, policy);
  workload::MaterializedSource source(
      workload::single_node_trace(*catalog(), 7));
  auto m = engine.run(source);
  EXPECT_EQ(m.incomplete, 0);
  EXPECT_EQ(util::audit::failures_observed(), failures_before);

  // every_n defaults to 1: every dispatched event is checked, and a Libra run
  // mutates pools so the listener path fired too. Full sweeps run only as
  // the backstop and once at run_end, the last engine event.
  const long events = auditor.stats().engine_events;
  EXPECT_GT(events, 0);
  EXPECT_EQ(auditor.stats().checks, events);
  EXPECT_EQ(auditor.stats().sweeps,
            (events - 1) / analysis::InvariantAuditor::kFullSweepPeriod + 1);
  EXPECT_GT(auditor.stats().nodes_checked, 0);
  EXPECT_GT(auditor.stats().pool_events, 0);
}

TEST(InvariantAuditor, SamplingHonorsEveryN) {
  analysis::InvariantAuditorConfig cfg;
  cfg.every_n = 5;
  analysis::InvariantAuditor auditor(cfg);
  auto policy = make_libra_policy();
  auditor.attach_policy(policy.get());

  auto engine_cfg = exp::single_node_config();
  engine_cfg.audit_hook = &auditor;
  sim::Engine engine(engine_cfg, policy);
  workload::MaterializedSource source(
      workload::single_node_trace(*catalog(), 11));
  engine.run(source);

  const long events = auditor.stats().engine_events;
  ASSERT_GT(events, analysis::InvariantAuditor::kFullSweepPeriod);
  // Exactly the events whose id is a multiple of 5, plus the full sweeps:
  // one per backstop period and run_end, the last event.
  long want_checks = 0;
  long want_sweeps = 0;
  for (long id = 1; id <= events; ++id) {
    const bool full =
        id % analysis::InvariantAuditor::kFullSweepPeriod == 0 || id == events;
    want_sweeps += full ? 1 : 0;
    want_checks += full || id % 5 == 0 ? 1 : 0;
  }
  EXPECT_LT(auditor.stats().checks, events);
  EXPECT_EQ(auditor.stats().checks, want_checks);
  EXPECT_EQ(auditor.stats().sweeps, want_sweeps);
}

TEST(InvariantAuditor, PoolEventPathReportsConservationViolation) {
  analysis::InvariantAuditor auditor;
  core::HarvestResourcePool pool;
  pool.set_event_listener(&auditor);
  pool.put(1, {2.0, 256.0}, 10.0, 0.0);
  pool.corrupt_for_audit_test(1, {0.5, 0.0});

  AuditCapture capture;
  pool.put(2, {1.0, 64.0}, 20.0, 1.0);  // the pool's own audit fires too
  bool auditor_fired = false;
  for (const auto& d : capture.diags())
    auditor_fired = auditor_fired ||
                    d.detail.find("pool-event: conservation violated for "
                                  "source 1") != std::string::npos;
  EXPECT_TRUE(auditor_fired);
}

TEST(InvariantAuditor, RunExperimentWiresAuditorByDefault) {
  // exp::run_experiment installs the auditor on every run; a healthy run
  // must complete without a single audit failure.
  const long failures_before = util::audit::failures_observed();
  auto m = exp::run_experiment(exp::single_node_config(), make_libra_policy(),
                               workload::single_node_trace(*catalog(), 7));
  EXPECT_EQ(m.incomplete, 0);
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
}

// ---------------------------------------------------------------------------
// InvariantAuditor: one seeded violation per check, through both paths
// ---------------------------------------------------------------------------

/// Minimal EngineApi serving nodes, per-node placed lists and invocation
/// records, so each check can be driven without an engine run. Liveness
/// follows the engine: a record is alive while it is present and not done.
/// The fake's nodes keep no touch log; a test says which nodes an event
/// touched (and which ids it finalized) through touched_ / finalized_.
class FakeApi final : public sim::EngineApi {
 public:
  explicit FakeApi(int num_nodes) {
    for (int n = 0; n < num_nodes; ++n) {
      nodes_.emplace_back(n, Resources{32.0, 32768.0}, 1);
      placed_.emplace_back();
    }
  }
  sim::SimTime now() const override { return 50.0; }
  const std::vector<sim::Node>& nodes() const override { return nodes_; }
  sim::Node& node(sim::NodeId id) override {
    return nodes_.at(static_cast<size_t>(id));
  }
  sim::Invocation& invocation(sim::InvocationId id) override {
    return invocations_.at(id);
  }
  bool invocation_alive(sim::InvocationId id) const override {
    const auto it = invocations_.find(id);
    return it != invocations_.end() && !it->second.done;
  }
  const sim::ExecutionModel& exec_model() const override { return exec_; }
  void update_effective(sim::InvocationId, const Resources&) override {}
  void sync_accounting(sim::InvocationId) override {}
  Resources observed_usage(sim::InvocationId) const override { return {}; }
  Resources observed_peak(sim::InvocationId) const override { return {}; }
  const std::vector<sim::InvocationId>& placed_on(
      sim::NodeId node) const override {
    return placed_.at(static_cast<size_t>(node));
  }
  const std::vector<sim::NodeId>& touched_nodes() const override {
    return touched_;
  }
  const std::vector<sim::InvocationId>& finalized_ids() const override {
    return finalized_;
  }

  /// A live, unplaced invocation of function 0 (1 core, 256 MB).
  sim::Invocation& add(sim::InvocationId id) {
    sim::Invocation& inv = invocations_[id];
    inv.id = id;
    inv.user_alloc = {1.0, 256.0};
    return inv;
  }
  /// A live invocation placed the way the engine places one: its reservation
  /// on the node and its id in the node's sorted placed list.
  sim::Invocation& place(sim::InvocationId id, sim::NodeId node_id) {
    sim::Invocation& inv = add(id);
    inv.node = node_id;
    EXPECT_TRUE(node(node_id).try_reserve(inv.shard, inv.user_alloc));
    list(node_id).insert(
        std::lower_bound(list(node_id).begin(), list(node_id).end(), id), id);
    return inv;
  }
  /// The raw placed list, for seeding violations.
  std::vector<sim::InvocationId>& list(sim::NodeId node_id) {
    return placed_.at(static_cast<size_t>(node_id));
  }

  /// What the next event reports as touched / finalized.
  std::vector<sim::NodeId> touched_;
  std::vector<sim::InvocationId> finalized_;

 private:
  std::vector<sim::Node> nodes_;
  std::vector<std::vector<sim::InvocationId>> placed_;
  std::map<sim::InvocationId, sim::Invocation> invocations_;
  sim::ExecutionModel exec_;
};

/// A healthy three-node cluster under a trust-enabled Libra policy:
/// invocations 1 and 2 run on node 0, 3 on node 1, node 2 is idle. Node 0's
/// pool holds an entry sourced from 1 with a grant lent to 2, and all three
/// sit in the raw-prediction stash. Invocation 4 is a terminal record ready
/// for recycling. Each test first shows both paths are silent, then seeds
/// one violation without going through any mutation site and expects that
/// check's diagnostic from the full sweep and — when the violation is local
/// to one node or pool — from an incremental check whose event reports that
/// node touched.
class AuditorChecks : public ::testing::Test {
 protected:
  AuditorChecks()
      : policy_(std::make_shared<core::LibraPolicy>(
            trust_config(), std::make_shared<core::UserConfigPredictor>(),
            std::make_shared<baselines::HashScheduler>())) {
    auditor_.attach_policy(policy_.get());
    for (const sim::InvocationId id : {1, 2}) api_.place(id, 0);
    api_.place(3, 1);
    for (const sim::InvocationId id : {1, 2, 3})
      policy_->predict(api_.invocation(id));
    policy_->pool(0).put(1, {0.5, 64.0}, 100.0, 0.0);
    policy_->pool(0).get({0.25, 32.0}, 2, 1.0);
    api_.add(4).done = true;
  }

  static core::LibraPolicyConfig trust_config() {
    core::LibraPolicyConfig cfg;
    cfg.trust_enabled = true;
    return cfg;
  }

  /// Diagnostic details raised by one full sweep, labelled "monitor" like
  /// the incremental check below.
  std::vector<std::string> sweep() {
    return capture([this] {
      auditor_.sweep(api_,
                     sim::engine_event_name(sim::EngineEventKind::kMonitor));
    });
  }
  /// Diagnostic details raised by the incremental check of one sampled
  /// engine event that touched `touched` and finalized `finalized`.
  std::vector<std::string> check(
      std::vector<sim::NodeId> touched,
      std::vector<sim::InvocationId> finalized = {}) {
    api_.touched_ = std::move(touched);
    api_.finalized_ = std::move(finalized);
    // A monitor tick stands in for any event that is neither a recycle nor
    // the run's end; its name labels the diagnostics like sweep()'s.
    auto details = capture([this] {
      auditor_.on_engine_event(
          api_, sim::EngineEvent{sim::EngineEventKind::kMonitor, 0});
    });
    api_.touched_.clear();
    api_.finalized_.clear();
    return details;
  }
  /// Diagnostic details raised by a sampled recycle event for `id` (the
  /// recycle check, then an incremental check with nothing marked).
  std::vector<std::string> recycle(sim::InvocationId id) {
    return capture([this, id] {
      auditor_.on_engine_event(
          api_,
          sim::EngineEvent{sim::EngineEventKind::kRecycle, 0, id});
    });
  }

  FakeApi api_{3};
  std::shared_ptr<core::LibraPolicy> policy_;
  analysis::InvariantAuditor auditor_;

 private:
  template <typename Fn>
  std::vector<std::string> capture(Fn&& fn) {
    AuditCapture capture;
    fn();
    std::vector<std::string> details;
    details.reserve(capture.diags().size());
    for (const auto& d : capture.diags()) details.push_back(d.detail);
    return details;
  }
};

/// Passes when some diagnostic contains `text`; lists them all otherwise.
::testing::AssertionResult Mentions(const std::vector<std::string>& details,
                                    const std::string& text) {
  for (const auto& d : details)
    if (d.find(text) != std::string::npos)
      return ::testing::AssertionSuccess();
  auto failure = ::testing::AssertionFailure()
                 << "no diagnostic mentions \"" << text << "\" among "
                 << details.size() << ":";
  for (const auto& d : details) failure << "\n  " << d;
  return failure;
}

/// Passes when no check fired; lists the diagnostics otherwise.
::testing::AssertionResult Silent(const std::vector<std::string>& details) {
  if (details.empty()) return ::testing::AssertionSuccess();
  auto failure = ::testing::AssertionFailure()
                 << details.size() << " unexpected diagnostic(s):";
  for (const auto& d : details) failure << "\n  " << d;
  return failure;
}

TEST(InvariantAuditor, SamplingFollowsTheIdsAcrossGaps) {
  // A hook that forwards only some events hands the auditor ids that do not
  // arrive one apart; its countdown restarts from each such id, so the
  // checked events are still exactly the multiples of every_n.
  analysis::InvariantAuditorConfig cfg;
  cfg.every_n = 5;
  analysis::InvariantAuditor auditor(cfg);
  FakeApi api(3);
  long want = 0;
  for (const long id : {1, 2, 5, 6, 7, 9, 10, 11, 15, 23, 25, 26, 40, 3, 4, 5}) {
    auditor.on_engine_event(
        api, sim::EngineEvent{sim::EngineEventKind::kMonitor, id});
    want += id % 5 == 0 ? 1 : 0;
  }
  EXPECT_EQ(want, 6);
  EXPECT_EQ(auditor.stats().checks, want);
}

TEST_F(AuditorChecks, HealthyClusterIsSilent) {
  EXPECT_TRUE(Silent(sweep()));
  EXPECT_TRUE(Silent(check({0, 1, 2}, {4})));
  EXPECT_TRUE(Silent(recycle(4)));
}

TEST_F(AuditorChecks, NodeAllocationDifferentFromPlacedSumFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({1})));
  ASSERT_TRUE(api_.node(1).try_reserve(0, {2.0, 512.0}));  // nobody's
  const std::string want =
      "node 1 allocated totals (cpu 3, mem 768) != sum of placed "
      "reservations (cpu 1, mem 256) over 1 invocations";
  EXPECT_TRUE(Mentions(check({1}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, PlacedInvocationThatIsDoneFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({1})));
  api_.invocation(3).done = true;
  const std::string want = "placed invocation 3 is completed or gone";
  EXPECT_TRUE(Mentions(check({1}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, PlacedInvocationThatIsGoneFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({1})));
  api_.list(1).push_back(9);  // no record behind it
  const std::string want = "placed invocation 9 is completed or gone";
  EXPECT_TRUE(Mentions(check({1}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, PlacedInvocationOnTheWrongNodeListFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({1})));
  api_.invocation(3).node = 0;  // listed (and reserved) on node 1
  const std::string want =
      "placed invocation 3 is listed on node 1 but references node 0";
  EXPECT_TRUE(Mentions(check({1}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, DownNodeHoldingAReservationFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({1})));
  api_.node(1).set_up(false);
  const std::string want =
      "down node 1 still holds reservations (cpu 1, mem 256, 0 running)";
  EXPECT_TRUE(Mentions(check({1}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, StashedPredictionOfFinishedInvocationFires) {
  ASSERT_TRUE(Silent(sweep()));
  policy_->predict(api_.add(5));
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(5).done = true;  // finished without on_finalized
  const std::string want =
      "raw-prediction stash holds invocation 5 which is completed or gone";
  // The incremental check sees it through the finalized id; the sweep
  // through its walk of the whole stash.
  EXPECT_TRUE(Silent(check({})));
  EXPECT_TRUE(Mentions(check({}, {5}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, GrantFromFinishedSourceFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({0})));
  api_.invocation(1).done = true;
  const std::string want =
      "pool of node 0 holds a grant sourced from invocation 1 which is "
      "completed or gone (borrower 2)";
  EXPECT_TRUE(Mentions(check({0}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, GrantToFinishedBorrowerFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({0})));
  api_.invocation(2).done = true;
  const std::string want =
      "pool of node 0 holds a grant lent to invocation 2 which is completed "
      "or gone (source 1)";
  EXPECT_TRUE(Mentions(check({0}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, IdleEntryOfFinishedSourceFires) {
  // An entry with no grants: only the entry-liveness check can see it.
  api_.add(6);
  policy_->pool(2).put(6, {1.0, 128.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({2})));
  api_.invocation(6).done = true;
  const std::string want =
      "pool of node 2 holds an entry sourced from invocation 6 which is "
      "completed or gone (idle cpu 1, mem 128)";
  EXPECT_TRUE(Mentions(check({2}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, NonEmptyPoolOfDownNodeFires) {
  api_.add(6);
  policy_->pool(2).put(6, {1.0, 128.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({2})));
  api_.node(2).set_up(false);
  const std::string want =
      "pool of DOWN node 2 is not empty (1 entries, 0 grants)";
  EXPECT_TRUE(Mentions(check({2}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, EntryOfQuarantinedFunctionFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({})));
  policy_->trust_manager_for_test()->quarantine_for_audit_test(0, 40.0);
  const std::string want =
      "holds an entry sourced from invocation 1 of QUARANTINED function 0";
  // No node is touched: the trust layer's quarantine counter moved, so the
  // incremental check re-checks every pool — once.
  EXPECT_TRUE(Mentions(check({}), want));
  EXPECT_TRUE(Silent(check({})));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, SweepChecksPoolConservation) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({0})));
  policy_->pool(0).corrupt_for_audit_test(1, {0.5, 0.0});  // no pool event
  const std::string want = "monitor: conservation violated for source 1";
  EXPECT_TRUE(Mentions(check({0}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, UnsortedPoolEntriesFire) {
  api_.add(5);
  policy_->pool(0).put(5, {0.5, 64.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({0})));
  policy_->pool(0).corrupt_order_for_audit_test();
  const std::string want =
      "monitor: pool entries out of order: source 1 follows source 5";
  EXPECT_TRUE(Mentions(check({0}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, GrantWithoutSourceEntryFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({0})));
  policy_->pool(0).orphan_grants_for_audit_test(1);
  const std::string want =
      "monitor: outstanding grant references source 1 with no pool entry";
  EXPECT_TRUE(Mentions(check({0}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, NegativeGrantFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(Silent(check({0})));
  // Ledger bumped in lockstep: conservation holds, only the sign is wrong.
  policy_->pool(0).corrupt_tenant_for_audit_test(1, 3, 0, {-0.25, 0.0});
  const std::string want =
      "monitor: negative grant from source 1 to borrower 3";
  EXPECT_TRUE(Mentions(check({0}), want));
  EXPECT_TRUE(Mentions(sweep(), want));
}

TEST_F(AuditorChecks, IncrementalCheckLooksOnlyAtMarkedNodes) {
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(3).done = true;  // a node-1 violation nobody marked
  // Node 0 is touched, node 1 is not: the check stays local. The backstop
  // sweep is what catches violations planted past every mutation site.
  EXPECT_TRUE(Silent(check({0})));
  EXPECT_TRUE(Mentions(sweep(), "placed invocation 3 is completed or gone"));
}

TEST_F(AuditorChecks, PoolEventMarksItsNode) {
  api_.add(6);
  policy_->pool(2).put(6, {1.0, 128.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(6).done = true;
  ASSERT_TRUE(Silent(check({})));
  // A mutation of node 2's pool marks node 2, so the next check re-reads it
  // even though the engine reported nothing touched.
  api_.add(7);
  policy_->pool(2).put(7, {0.5, 64.0}, 100.0, 3.0);
  EXPECT_TRUE(Mentions(check({}), "pool of node 2 holds an entry sourced from "
                                  "invocation 6 which is completed or gone"));
}

TEST_F(AuditorChecks, PoolEventWithoutNodeRechecksEveryPool) {
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(2).done = true;
  ASSERT_TRUE(Silent(check({})));
  core::PoolEvent ev;
  ev.node = sim::kNoNode;  // no hint: the auditor cannot tell which pool
  auditor_.on_pool_event(ev);
  EXPECT_TRUE(Mentions(check({}), "pool of node 0 holds a grant lent to "
                                  "invocation 2 which is completed or gone"));
}

TEST_F(AuditorChecks, RecyclingALiveRecordFires) {
  ASSERT_TRUE(Silent(recycle(4)));
  EXPECT_TRUE(Mentions(recycle(3), "recycle: invocation 3 is not a terminal record"));
}

TEST_F(AuditorChecks, RecycledIdStillPlacedFires) {
  ASSERT_TRUE(Silent(recycle(4)));
  api_.list(1).push_back(4);
  EXPECT_TRUE(Mentions(recycle(4), "recycle: invocation 4 still holds a node "
                                   "reservation on node 1"));
}

TEST_F(AuditorChecks, RecycledIdStillContributingUsageFires) {
  ASSERT_TRUE(Silent(recycle(4)));
  api_.invocation(4).usage_contrib_present = true;
  EXPECT_TRUE(Mentions(recycle(4), "recycle: invocation 4 still contributes "
                                   "to the cluster usage sums"));
}

TEST_F(AuditorChecks, RecycledIdStillStashedFires) {
  ASSERT_TRUE(Silent(recycle(4)));
  policy_->predict(api_.invocation(4));
  EXPECT_TRUE(Mentions(recycle(4), "recycle: invocation 4 still stashed in "
                                   "the policy's raw-prediction bookkeeping"));
}

TEST_F(AuditorChecks, RecycledIdStillAPoolSourceFires) {
  ASSERT_TRUE(Silent(recycle(4)));
  policy_->pool(2).put(4, {1.0, 128.0}, 100.0, 2.0);
  EXPECT_TRUE(Mentions(recycle(4), "recycle: invocation 4 still owns a pool "
                                   "entry on node 2"));
}

TEST_F(AuditorChecks, RecycledIdStillABorrowerFires) {
  ASSERT_TRUE(Silent(recycle(4)));
  policy_->pool(0).get({0.1, 8.0}, 4, 2.0);
  EXPECT_TRUE(Mentions(recycle(4), "recycle: invocation 4 still referenced by "
                                   "a grant in pool of node 0 (source 1, "
                                   "borrower 4)"));
}

// ---------------------------------------------------------------------------
// Marks: every node an event changed is in touched_nodes()
// ---------------------------------------------------------------------------

/// After every engine event, fingerprints each node — allocated totals,
/// running count, up flag, placed list — and records every node whose
/// fingerprint changed since the previous event without being listed in
/// EngineApi::touched_nodes(); also counts EngineApi::finalized_ids(). Then
/// forwards to the auditor. A mutation site that forgets its mark shows up
/// here.
class MarkProbe final : public sim::EngineAuditHook {
 public:
  explicit MarkProbe(analysis::InvariantAuditor& auditor) : auditor_(auditor) {}

  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override {
    const auto& nodes = api.nodes();
    prints_.resize(nodes.size());
    const auto& touched = api.touched_nodes();
    for (const auto& node : nodes) {
      Print now{node.allocated().cpu, node.allocated().mem,
                node.running_invocations(), node.up(),
                api.placed_on(node.id())};
      Print& prev = prints_[static_cast<size_t>(node.id())];
      if (now == prev) continue;
      ++changed_;
      if (std::find(touched.begin(), touched.end(), node.id()) ==
          touched.end())
        misses_.push_back(std::string(sim::engine_event_name(ev.kind)) +
                          " (event " + std::to_string(ev.id) + "): node " +
                          std::to_string(node.id()));
      prev = std::move(now);
    }
    finalized_ += static_cast<long>(api.finalized_ids().size());
    auditor_.on_engine_event(api, ev);
  }

  long changed() const { return changed_; }
  long finalized() const { return finalized_; }
  const std::vector<std::string>& misses() const { return misses_; }

 private:
  struct Print {
    double cpu = 0.0;
    double mem = 0.0;
    int running = 0;
    bool up = true;
    std::vector<sim::InvocationId> placed;
    bool operator==(const Print&) const = default;
  };
  analysis::InvariantAuditor& auditor_;
  std::vector<Print> prints_;
  long changed_ = 0;
  long finalized_ = 0;
  std::vector<std::string> misses_;
};

TEST(AuditMarks, EveryNodeMutatorMarksItsNode) {
  // In the engine a reservation, its placed-list entry and the running count
  // change together, so a run cannot tell one missing mark from another;
  // here each Node mutator must mark on its own.
  sim::TouchLog log(4);
  sim::Node node(2, {8.0, 8192.0}, /*num_shards=*/1);
  node.set_touch_log(&log);
  const std::vector<sim::NodeId> just_node{2};
  ASSERT_TRUE(node.try_reserve(0, {1.0, 128.0}));
  EXPECT_EQ(log.ids(), just_node) << "try_reserve";
  log.clear();
  EXPECT_FALSE(node.try_reserve(0, {100.0, 1.0}));  // changes nothing
  EXPECT_TRUE(log.ids().empty()) << "failed try_reserve";
  node.release(0, {1.0, 128.0});
  EXPECT_EQ(log.ids(), just_node) << "release";
  log.clear();
  node.invocation_started();
  EXPECT_EQ(log.ids(), just_node) << "invocation_started";
  log.clear();
  node.invocation_finished();
  EXPECT_EQ(log.ids(), just_node) << "invocation_finished";
  log.clear();
  node.set_up(false);
  EXPECT_EQ(log.ids(), just_node) << "set_up";
  // Repeat marks are dropped until the log is cleared.
  node.set_up(true);
  ASSERT_TRUE(node.try_reserve(0, {1.0, 128.0}));
  EXPECT_EQ(log.ids(), just_node);
}

/// Predicts the full CPU allocation but almost no memory, so Libra
/// harvests memory below what the container needs and it OOMs.
class MemoryUnderPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "memory-under"; }
  void predict(sim::Invocation& inv) override {
    inv.pred_demand = {inv.user_alloc.cpu, 1.0};
    inv.pred_duration = 1.0;
    inv.pred_size_related = true;
  }
  void observe(const core::Observation&) override {}
};

/// Libra+Trust whose memory predictions are far too low (OOM re-dispatch,
/// demotions), a crash-and-recover outage on node 1 and a spot reclamation
/// with a drain notice on node 2: every path that moves a reservation.
struct MovingScenario {
  std::shared_ptr<core::LibraPolicy> policy;
  sim::EngineConfig cfg;
  std::vector<sim::Invocation> trace;
};

MovingScenario moving_scenario() {
  core::LibraPolicyConfig pcfg;
  pcfg.trust_enabled = true;
  pcfg.safeguard_enabled = false;  // nothing rescues the container early
  pcfg.min_mem_floor = 8.0;        // allow harvesting below the OOM floor
  MovingScenario s;
  s.policy = core::LibraPolicy::with_coverage_scheduler(
      pcfg, std::make_shared<MemoryUnderPredictor>());
  s.cfg = exp::multi_node_config();
  s.cfg.oom_redispatch = true;
  s.cfg.fault_plan.outages.push_back({/*node=*/1, /*down_at=*/15.0,
                                      /*up_at=*/30.0});
  s.cfg.fault_plan.outages.push_back(
      {/*node=*/2, /*down_at=*/25.0, sim::fault::kNever, /*spot=*/true});
  s.cfg.spot_drain_notice = 5.0;
  s.trace = workload::multi_trace(*catalog(), 60, 5);
  return s;
}

/// Runs `s` with `hook` installed and checks that the run exercised every
/// path the scenario claims to cover.
sim::RunMetrics run_moving(MovingScenario s, sim::EngineAuditHook& hook) {
  s.cfg.audit_hook = &hook;
  const long failures_before = util::audit::failures_observed();
  sim::Engine engine(s.cfg, s.policy);
  workload::MaterializedSource source(std::move(s.trace));
  const auto m = engine.run(source);
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
  EXPECT_GT(m.node_crashes, 0);
  EXPECT_GT(m.drain_evictions, 0);
  EXPECT_GT(m.oom_retries, 0);
  EXPECT_GT(m.policy.trust_demotions, 0);
  return m;
}

TEST(AuditMarks, EveryChangedNodeIsTouched) {
  auto s = moving_scenario();
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(s.policy.get());
  MarkProbe probe(auditor);
  const auto m = run_moving(std::move(s), probe);
  EXPECT_GT(probe.changed(), 0);
  // Every record is finalized once, and run_end follows the stragglers.
  EXPECT_EQ(probe.finalized(), m.finalized_records);
  EXPECT_TRUE(probe.misses().empty())
      << probe.misses().size() << " unmarked node changes, first: "
      << probe.misses().front();
}

/// After every engine event, compares each node's placed list with the
/// ascending trace ids that are alive and name that node. The auditor's
/// per-node check covers only the other direction (every listed id is alive
/// and names the node); a crash takes its victims from the placed list, so
/// a live invocation missing from it would outlive its node.
class PlacedProbe final : public sim::EngineAuditHook {
 public:
  PlacedProbe(analysis::InvariantAuditor& auditor,
              const std::vector<sim::Invocation>& trace)
      : auditor_(auditor) {
    for (const auto& inv : trace) ids_.push_back(inv.id);
    std::sort(ids_.begin(), ids_.end());
  }

  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override {
    expected_.assign(api.nodes().size(), {});
    for (const sim::InvocationId id : ids_) {
      if (!api.invocation_alive(id)) continue;
      const sim::NodeId node = api.invocation(id).node;
      if (node != sim::kNoNode)
        expected_[static_cast<size_t>(node)].push_back(id);
    }
    for (const auto& node : api.nodes()) {
      ++compared_;
      if (api.placed_on(node.id()) != expected_[static_cast<size_t>(node.id())])
        mismatches_.push_back(std::string(sim::engine_event_name(ev.kind)) +
                              " (event " + std::to_string(ev.id) +
                              "): node " + std::to_string(node.id()));
    }
    auditor_.on_engine_event(api, ev);
  }

  long compared() const { return compared_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  analysis::InvariantAuditor& auditor_;
  std::vector<sim::InvocationId> ids_;
  std::vector<std::vector<sim::InvocationId>> expected_;
  long compared_ = 0;
  std::vector<std::string> mismatches_;
};

TEST(AuditMarks, PlacedListsHoldExactlyTheLiveInvocations) {
  auto s = moving_scenario();
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(s.policy.get());
  PlacedProbe probe(auditor, s.trace);
  run_moving(std::move(s), probe);
  EXPECT_GT(probe.compared(), 0);
  EXPECT_TRUE(probe.mismatches().empty())
      << probe.mismatches().size() << " placed lists differ from the live "
      << "invocations, first: " << probe.mismatches().front();
}

// ---------------------------------------------------------------------------
// Backstop: violations planted past every mutation site
// ---------------------------------------------------------------------------

/// Plants a raw-prediction stash entry for an id no engine record has, at
/// one engine event. No node, pool or finalize mark records it, so only a
/// full sweep (backstop or run_end) can see it.
class PlantingHook final : public sim::EngineAuditHook {
 public:
  static constexpr sim::InvocationId kPhantom = 1000000000;

  PlantingHook(analysis::InvariantAuditor& auditor, core::LibraPolicy& policy,
               long plant_at)
      : auditor_(auditor), policy_(policy), plant_at_(plant_at) {}

  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override {
    if (++events_ == plant_at_) {
      sim::Invocation phantom;
      phantom.id = kPhantom;
      phantom.user_alloc = {1.0, 256.0};
      policy_.predict(phantom);
    }
    auditor_.on_engine_event(api, ev);
  }

 private:
  analysis::InvariantAuditor& auditor_;
  core::LibraPolicy& policy_;
  long plant_at_;
  long events_ = 0;
};

struct PlantedRun {
  std::vector<util::audit::Diagnostic> diags;
  analysis::InvariantAuditor::Stats stats;
};

PlantedRun run_planted(sim::EngineConfig cfg,
                       std::vector<sim::Invocation> trace, long plant_at) {
  core::LibraPolicyConfig pcfg;
  pcfg.trust_enabled = true;  // the stash exists only under the trust layer
  auto policy = std::make_shared<core::LibraPolicy>(
      pcfg, std::make_shared<core::UserConfigPredictor>(),
      std::make_shared<baselines::HashScheduler>());
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(policy.get());
  PlantingHook hook(auditor, *policy, plant_at);
  cfg.audit_hook = &hook;
  AuditCapture capture;
  sim::Engine engine(cfg, policy);
  workload::MaterializedSource source(std::move(trace));
  engine.run(source);
  return {capture.diags(), auditor.stats()};
}

TEST(AuditBackstop, UnmarkedViolationCaughtWithinOnePeriod) {
  constexpr long kPlantAt = 100;
  const PlantedRun run = run_planted(
      exp::multi_node_config(), workload::multi_trace(*catalog(), 300, 3),
      kPlantAt);
  const long period = analysis::InvariantAuditor::kFullSweepPeriod;
  ASSERT_GT(run.stats.engine_events, kPlantAt + period);
  ASSERT_FALSE(run.diags.empty());
  // Every check after the plant is incremental except the full sweeps; each
  // full sweep (the backstops and run_end) reports the phantom once.
  EXPECT_GT(run.diags.front().event_id, kPlantAt);
  EXPECT_LE(run.diags.front().event_id, kPlantAt + period);
  EXPECT_EQ(static_cast<long>(run.diags.size()), run.stats.sweeps);
  for (const auto& d : run.diags)
    EXPECT_NE(d.detail.find("policy raw-prediction stash holds invocation "
                            "1000000000 which is completed or gone"),
              std::string::npos)
        << d.detail;
  EXPECT_EQ(run.diags.back().detail.rfind("after run_end:", 0), 0u)
      << run.diags.back().detail;
}

TEST(AuditBackstop, RunEndSweepCatchesWhatNoCheckSaw) {
  const PlantedRun run = run_planted(
      exp::multi_node_config(), workload::multi_trace(*catalog(), 10, 7),
      /*plant_at=*/10);
  ASSERT_LT(run.stats.engine_events,
            analysis::InvariantAuditor::kFullSweepPeriod);
  EXPECT_EQ(run.stats.checks, run.stats.engine_events);
  EXPECT_EQ(run.stats.sweeps, 1);
  ASSERT_EQ(run.diags.size(), 1u);
  EXPECT_EQ(run.diags[0].event_id, run.stats.engine_events);
  EXPECT_EQ(run.diags[0].detail.rfind("after run_end: policy raw-prediction "
                                      "stash holds invocation 1000000000",
                                      0),
            0u)
      << run.diags[0].detail;
}

// ---------------------------------------------------------------------------
// Differential: the incremental check against the full sweep
// ---------------------------------------------------------------------------

/// A violation a differential leg plants at one engine event.
enum class Plant {
  /// A reservation no placed invocation accounts for, taken through
  /// Node::try_reserve: a faulty mutation site that still marks its node.
  kLeakedReservation,
  /// A placed invocation lost in place (Engine::lose_for_audit_test): a
  /// terminal path that skips teardown. Only finalize_record marks its node.
  kLostInPlace,
  /// The scenario's armed chaos injection (chaos::arm_injection), written
  /// into pool 0 with no pool event: nothing marks it.
  kScenarioInjection,
  /// Node 0's capacity-index leaf of shard 0 rewritten one whole slice below
  /// its free slice (Engine::stale_capacity_for_audit_test): a reservation
  /// change whose index write went wrong. The hook marks the node.
  kCapacityLeafBelow,
  /// The same leaf rewritten one core and 1 MB above its free slice: still a
  /// sound bound, but no longer the nodes' maximum.
  kCapacityLeafAbove,
  /// Node 0's occupancy bit cleared while its pool view holds an entry
  /// (LibraPolicy / Engine flip_*_occupied_for_audit_test): coverage picks
  /// would skip a candidate. Nothing marks it.
  kViewBitDropped,
  /// Node 0's occupancy bit set while its pool view is empty: picks only
  /// score one view too many. Nothing marks it.
  kViewBitStale,
};

/// Engine event from which a leg plants kLeakedReservation / kLostInPlace.
constexpr long kPlantAt = 150;

/// One diagnostic the check under comparison raised, and at which event.
struct EngineDiag {
  long event_id = -1;
  std::string detail;
  bool operator==(const EngineDiag&) const = default;
};

/// One differential leg's engine hook. From the first event at or after the
/// plant event where it can, plants the leg's violation; then runs the check
/// under test — the auditor's own per-event path, or the full sweep after
/// every event (the reference) — and records what that call raises. Only
/// these engine-side diagnostics are compared: the pool's own mutation
/// audits and the pool-event listener run alike in both legs, and the
/// recycle check belongs to neither path under comparison.
///
/// After a plant the full sweep re-reports the violation on every event
/// (up to a million diagnostics a run), so a reference leg given `keep`
/// records only what it raises up to and at the plant event and at the
/// events listed there: those the incremental leg reported at.
class DifferentialLeg final : public sim::EngineAuditHook {
 public:
  DifferentialLeg(analysis::InvariantAuditor& auditor,
                  core::LibraPolicy* policy, bool full_sweep, Plant plant,
                  const chaos::InjectSpec& inject,
                  const std::vector<long>* keep = nullptr)
      : auditor_(auditor),
        policy_(policy),
        full_sweep_(full_sweep),
        plant_(plant),
        inject_(inject),
        keep_(keep) {
    prev_ = util::audit::set_failure_handler(
        [this](const util::audit::Diagnostic& d) {
          if (recording_ && d.detail.rfind("recycle: ", 0) != 0 &&
              kept(d.event_id))
            diags_.push_back({d.event_id, d.detail});
        });
  }
  ~DifferentialLeg() override {
    util::audit::set_failure_handler(std::move(prev_));
  }
  DifferentialLeg(const DifferentialLeg&) = delete;
  DifferentialLeg& operator=(const DifferentialLeg&) = delete;

  /// The engine under audit (kLostInPlace loses through it).
  void set_engine(sim::Engine* engine) { engine_ = engine; }
  /// Whose view the kViewBit* plants flip: a controller's cache, or the
  /// policy's snapshots (-1, the default).
  void set_view_owner(int controller) { view_owner_ = controller; }

  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override {
    if (planted_at_ < 0 && ev.id >= plant_event() && try_plant(api))
      planted_at_ = ev.id;
    recording_ = true;
    if (full_sweep_)
      auditor_.sweep(api, sim::engine_event_name(ev.kind));
    else
      auditor_.on_engine_event(api, ev);
    recording_ = false;
  }

  /// The engine event the violation was planted at (-1: never).
  long planted_at() const { return planted_at_; }
  /// The invocation kLostInPlace lost.
  sim::InvocationId victim() const { return victim_; }
  const std::vector<EngineDiag>& diags() const { return diags_; }

 private:
  long plant_event() const {
    return plant_ == Plant::kScenarioInjection ? inject_.at_event : kPlantAt;
  }
  bool kept(long event_id) const {
    return keep_ == nullptr || planted_at_ < 0 || event_id == planted_at_ ||
           std::binary_search(keep_->begin(), keep_->end(), event_id);
  }

  bool try_plant(sim::EngineApi& api) {
    switch (plant_) {
      case Plant::kLeakedReservation:
        for (const auto& node : api.nodes())
          if (node.up() && api.node(node.id()).try_reserve(0, {0.01, 1.0}))
            return true;
        return false;
      case Plant::kLostInPlace: {
        // On a node this event left untouched, so only finalize_record's
        // mark can lead the incremental check there.
        const auto& touched = api.touched_nodes();
        for (const auto& node : api.nodes()) {
          const auto& placed = api.placed_on(node.id());
          if (placed.empty() || std::find(touched.begin(), touched.end(),
                                          node.id()) != touched.end())
            continue;
          victim_ = placed.front();
          engine_->lose_for_audit_test(victim_);
          return true;
        }
        return false;
      }
      case Plant::kCapacityLeafBelow:
      case Plant::kCapacityLeafAbove: {
        const sim::Node& node = api.nodes().front();
        const Resources shift = plant_ == Plant::kCapacityLeafBelow
                                    ? node.shard_capacity() * -1.0
                                    : Resources{1.0, 1.0};
        engine_->stale_capacity_for_audit_test(0, 0,
                                               node.shard_free(0) + shift);
        return true;
      }
      case Plant::kViewBitDropped:
      case Plant::kViewBitStale: {
        const core::PoolStatus& view =
            view_owner_ < 0 ? policy_->pool_status(0)
                            : *api.controller_pool_view(0, view_owner_);
        if (view.entries.empty() != (plant_ == Plant::kViewBitStale))
          return false;
        if (view_owner_ < 0)
          policy_->flip_occupied_for_audit_test(0);
        else
          engine_->flip_controller_occupied_for_audit_test(view_owner_, 0);
        return true;
      }
      case Plant::kScenarioInjection: {
        core::HarvestResourcePool& pool = policy_->pool(0);
        if (inject_.kind == chaos::InjectKind::kConservation)
          pool.corrupt_for_audit_test(/*source=*/1, {1.0, 64.0});
        else
          pool.corrupt_tenant_for_audit_test(/*source=*/1, /*borrower=*/2,
                                             /*tenant=*/0, {1000.0, 1.0e6});
        return true;
      }
    }
    return false;
  }

  analysis::InvariantAuditor& auditor_;
  core::LibraPolicy* policy_;
  bool full_sweep_;
  Plant plant_;
  chaos::InjectSpec inject_;
  const std::vector<long>* keep_;
  sim::Engine* engine_ = nullptr;
  int view_owner_ = -1;
  util::audit::FailureHandler prev_;
  bool recording_ = false;
  long planted_at_ = -1;
  sim::InvocationId victim_ = sim::kNoInvocation;
  std::vector<EngineDiag> diags_;
};

TEST(AuditMarks, FinalizedStillPlacedRecordFiresAtThatEvent) {
  // A terminal path that skips teardown leaves the id on its node's placed
  // list. finalize_record marks that node, so the check of the very event
  // that lost it reports it, not the next backstop.
  auto policy = make_libra_policy();
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(policy.get());
  DifferentialLeg leg(auditor, policy.get(), /*full_sweep=*/false,
                      Plant::kLostInPlace, chaos::InjectSpec{});
  auto cfg = exp::multi_node_config();
  cfg.audit_hook = &leg;
  sim::Engine engine(cfg, policy);
  leg.set_engine(&engine);
  workload::MaterializedSource source(workload::multi_trace(*catalog(), 60, 5));
  engine.run(source);
  ASSERT_GE(leg.planted_at(), kPlantAt);
  ASSERT_FALSE(leg.diags().empty());
  const EngineDiag& first = leg.diags().front();
  EXPECT_EQ(first.event_id, leg.planted_at());
  EXPECT_EQ(first.detail.find("placed invocation " +
                              std::to_string(leg.victim()) +
                              " is completed or gone"),
            first.detail.find(": ") + 2)
      << first.detail;
}

/// One Libra run on a single node, audited per event by the incremental
/// check or by a full sweep, with `plant` planted at kPlantAt or soon after.
struct OneNodeRun {
  long planted_at = -1;
  std::vector<EngineDiag> diags;
};
/// `view_owner` >= 0 runs two controllers (so each keeps a cache) and
/// plants in that controller's cache.
OneNodeRun run_one_node(Plant plant, bool full_sweep, int view_owner = -1) {
  auto policy = make_libra_policy();
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(policy.get());
  DifferentialLeg leg(auditor, policy.get(), full_sweep, plant,
                      chaos::InjectSpec{});
  leg.set_view_owner(view_owner);
  auto cfg = exp::multi_node_config();
  cfg.node_capacities.resize(1);
  if (view_owner >= 0) cfg.control.num_controllers = 2;
  cfg.audit_hook = &leg;
  sim::Engine engine(cfg, policy);
  leg.set_engine(&engine);
  workload::MaterializedSource source(workload::multi_trace(*catalog(), 60, 5));
  engine.run(source);
  return {leg.planted_at(), leg.diags()};
}

TEST(AuditMarks, StaleCapacityLeafFiresAtThatEvent) {
  // A leaf left below its node's free slice: on one node the root is that
  // leaf, so the index would prove "no node fits" where one does. The index
  // write happens where the node is marked, so the check of that very event
  // reports the slice above the root.
  const OneNodeRun run = run_one_node(Plant::kCapacityLeafBelow, false);
  ASSERT_GE(run.planted_at, kPlantAt);
  ASSERT_FALSE(run.diags.empty());
  const EngineDiag& first = run.diags.front();
  EXPECT_EQ(first.event_id, run.planted_at);
  EXPECT_NE(first.detail.find(": node 0 shard 0 has more free (cpu "),
            std::string::npos)
      << first.detail;
  EXPECT_NE(first.detail.find(") than the capacity index's root (cpu "),
            std::string::npos)
      << first.detail;
}

TEST(AuditMarks, CapacityRootAboveTheNodesOnlyFailsTheSweep) {
  // A leaf raised above its node's free slice keeps the root a sound bound,
  // so the incremental check stays silent; the full sweep compares each
  // root with the nodes' maximum bit for bit and reports it at that event.
  const OneNodeRun inc = run_one_node(Plant::kCapacityLeafAbove, false);
  ASSERT_GE(inc.planted_at, kPlantAt);
  for (const EngineDiag& d : inc.diags)
    EXPECT_NE(d.event_id, inc.planted_at) << d.detail;
  const OneNodeRun full = run_one_node(Plant::kCapacityLeafAbove, true);
  ASSERT_EQ(full.planted_at, inc.planted_at);
  ASSERT_FALSE(full.diags.empty());
  const EngineDiag& first = full.diags.front();
  EXPECT_EQ(first.event_id, full.planted_at);
  EXPECT_NE(first.detail.find(": capacity index root of shard 0 (cpu "),
            std::string::npos)
      << first.detail;
  EXPECT_NE(first.detail.find(") != the nodes' largest free slice (cpu "),
            std::string::npos)
      << first.detail;
}

TEST(AuditMarks, OccupancyBitsOnlyFailTheSweep) {
  // A bit flipped without its view changing goes through no mutation site,
  // so the incremental check stays silent; the full sweep compares every
  // bit with its view, for the policy's snapshots and for each controller
  // cache, and reports a missing bit and a stale one at that event.
  struct Case {
    Plant plant;
    int owner;
    const char* text;
  };
  for (const Case& c :
       {Case{Plant::kViewBitDropped, -1,
             ": the policy's pool view of node 0 holds "},
        Case{Plant::kViewBitStale, -1,
             ": the policy's pool view of node 0 is empty but its occupancy "
             "bit is set"},
        Case{Plant::kViewBitDropped, 1,
             ": controller 1's pool view of node 0 holds "},
        Case{Plant::kViewBitStale, 1,
             ": controller 1's pool view of node 0 is empty but its "
             "occupancy bit is set"}}) {
    SCOPED_TRACE(c.text);
    const OneNodeRun inc = run_one_node(c.plant, false, c.owner);
    ASSERT_GE(inc.planted_at, kPlantAt);
    for (const EngineDiag& d : inc.diags)
      EXPECT_NE(d.event_id, inc.planted_at) << d.detail;
    const OneNodeRun full = run_one_node(c.plant, true, c.owner);
    ASSERT_EQ(full.planted_at, inc.planted_at);
    ASSERT_FALSE(full.diags.empty());
    const EngineDiag& first = full.diags.front();
    EXPECT_EQ(first.event_id, full.planted_at);
    EXPECT_NE(first.detail.find(c.text), std::string::npos) << first.detail;
    if (c.plant == Plant::kViewBitDropped) {
      EXPECT_NE(first.detail.find(" entries but its occupancy bit is clear: "
                                  "coverage picks skip it"),
                std::string::npos)
          << first.detail;
    }
  }
}

struct AuditedLeg {
  long planted_at = -1;
  std::vector<EngineDiag> diags;
};

/// One leg of a chaos scenario — the faulty Libra platform with the
/// scenario's quotas, or the Default platform — audited either by the
/// incremental auditor (every_n = 1) or by a full sweep after every event,
/// with `plant` planted in it. `inc` (for the full sweep): the incremental
/// leg of the same run, whose diagnostic events the full sweep's record
/// must cover.
AuditedLeg run_audited(const chaos::Scenario& sc, bool libra, Plant plant,
                       const AuditedLeg* inc = nullptr) {
  const bool full_sweep = inc != nullptr;
  std::vector<long> keep;
  if (inc != nullptr)
    for (const EngineDiag& d : inc->diags)
      if (keep.empty() || keep.back() != d.event_id) keep.push_back(d.event_id);
  auto cat = std::make_shared<const sim::FunctionCatalog>(
      gen::synthetic_catalog(sc.gen));
  std::vector<sim::Invocation> trace;
  gen::SyntheticSource gen_source(sc.gen, cat);
  while (gen_source.peek_arrival().has_value()) {
    trace.push_back(gen_source.next());
    trace.back().tenant = static_cast<int>(trace.back().func) % sc.num_tenants;
  }
  std::shared_ptr<sim::Policy> policy;
  core::LibraPolicy* lp = nullptr;
  if (libra) {
    auto p = exp::make_faulty_libra(cat, exp::PlatformTuning{},
                                    sc.plan.prediction_faults,
                                    /*with_trust=*/false);
    for (const auto& [tenant, cap] : sc.tenant_quotas)
      p->set_tenant_quota(tenant, cap);
    lp = p.get();
    policy = p;
  } else {
    policy = exp::make_platform(exp::PlatformKind::kDefault, cat);
  }
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(lp);
  DifferentialLeg leg(auditor, lp, full_sweep, plant, sc.inject,
                      full_sweep ? &keep : nullptr);
  sim::EngineConfig cfg = sc.engine_config();
  cfg.audit_hook = &leg;
  sim::Engine engine(cfg, policy);
  leg.set_engine(&engine);
  workload::MaterializedSource source(std::move(trace));
  engine.run(source);
  return {leg.planted_at(), leg.diags()};
}

/// Every diagnostic of the incremental leg is one the full sweep raised at
/// the same event, in the same order: the incremental check runs the same
/// checks over part of the state, so it may stay silent where the sweep
/// reports, but it never reports anything else.
::testing::AssertionResult WithinFullSweep(const AuditedLeg& inc,
                                           const AuditedLeg& full) {
  size_t j = 0;
  for (const EngineDiag& d : inc.diags) {
    while (j < full.diags.size() &&
           (full.diags[j].event_id < d.event_id ||
            (full.diags[j].event_id == d.event_id &&
             full.diags[j].detail != d.detail)))
      ++j;
    if (j == full.diags.size() || full.diags[j].event_id != d.event_id)
      return ::testing::AssertionFailure()
             << "event " << d.event_id
             << ": the incremental check reported what the full sweep did "
                "not: "
             << d.detail;
    ++j;
  }
  return ::testing::AssertionSuccess();
}

/// Diagnostics raised before event `at`.
long count_before(const AuditedLeg& leg, long at) {
  return std::count_if(leg.diags.begin(), leg.diags.end(),
                       [at](const EngineDiag& d) { return d.event_id < at; });
}

/// Runs scenarios [first, first + count) of fuzzer `seed` through `check`.
template <typename Check>
void for_fuzzed_scenarios(uint64_t seed, int first, int count, Check&& check) {
  chaos::ScenarioFuzzer fuzzer(seed);
  for (int i = 0; i < first + count; ++i) {
    chaos::Scenario sc = fuzzer.next();
    if (i < first) continue;
    SCOPED_TRACE("fuzzer seed " + std::to_string(seed) + " scenario " +
                 std::to_string(i));
    check(std::move(sc));
  }
}

/// A marked violation (`plant` goes through a mark site): both legs are
/// silent alike before it, and the incremental check reports it at the very
/// event the full sweep first does, with the same text.
void expect_same_audit(const chaos::Scenario& sc, bool libra, Plant plant) {
  SCOPED_TRACE(libra ? "libra leg" : "default leg");
  const AuditedLeg inc = run_audited(sc, libra, plant);
  const AuditedLeg full = run_audited(sc, libra, plant, &inc);
  ASSERT_GE(full.planted_at, kPlantAt);
  ASSERT_EQ(inc.planted_at, full.planted_at);  // the same run either way
  EXPECT_TRUE(WithinFullSweep(inc, full));
  // Up to the plant the run is healthy: the same diagnostics (none, on a
  // correct engine).
  EXPECT_EQ(count_before(inc, inc.planted_at),
            count_before(full, full.planted_at));
  ASSERT_FALSE(full.diags.empty());
  EXPECT_EQ(full.diags.front().event_id, full.planted_at)
      << full.diags.front().detail;
  ASSERT_FALSE(inc.diags.empty());
  EXPECT_EQ(inc.diags.front(), full.diags.front())
      << "incremental, event " << inc.diags.front().event_id << ": "
      << inc.diags.front().detail << "\nfull sweep, event "
      << full.diags.front().event_id << ": " << full.diags.front().detail;
}

// Scenarios 0-19 of fuzzer seeds 7 and 11 (40 in all), on both platform
// legs, each with one invocation lost in place at event kPlantAt or soon
// after (every one of these runs reaches it). The
// Libra legs are split in blocks of 10 so each test stays well under the
// per-test timeout in sanitizer builds.
TEST(AuditDifferential, IncrementalMatchesFullSweepDefaultSeed7) {
  for_fuzzed_scenarios(7, 0, 20, [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/false, Plant::kLostInPlace);
  });
}

TEST(AuditDifferential, IncrementalMatchesFullSweepDefaultSeed11) {
  for_fuzzed_scenarios(11, 0, 20, [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/false, Plant::kLostInPlace);
  });
}

TEST(AuditDifferential, IncrementalMatchesFullSweepLibraSeed7Scenarios0To9) {
  for_fuzzed_scenarios(7, 0, 10, [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/true, Plant::kLostInPlace);
  });
}

TEST(AuditDifferential, IncrementalMatchesFullSweepLibraSeed7Scenarios10To19) {
  for_fuzzed_scenarios(7, 10, 10, [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/true, Plant::kLostInPlace);
  });
}

TEST(AuditDifferential, IncrementalMatchesFullSweepLibraSeed11Scenarios0To9) {
  for_fuzzed_scenarios(11, 0, 10, [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/true, Plant::kLostInPlace);
  });
}

TEST(AuditDifferential, IncrementalMatchesFullSweepLibraSeed11Scenarios10To19) {
  for_fuzzed_scenarios(11, 10, 10, [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/true, Plant::kLostInPlace);
  });
}

TEST(AuditDifferential, LeakedReservationFiresAtTheSameEvent) {
  const auto check = [](const chaos::Scenario& sc) {
    expect_same_audit(sc, /*libra=*/true, Plant::kLeakedReservation);
  };
  for_fuzzed_scenarios(7, 0, 3, check);
  for_fuzzed_scenarios(11, 0, 3, check);
}

/// An unmarked violation (the chaos injection): the full sweep reports it
/// at the injection event; the incremental check reports it no later than
/// the next backstop, and only what the full sweep reports at that event.
void expect_injection_caught_alike(chaos::InjectKind kind) {
  const auto check = [kind](chaos::Scenario sc) {
    chaos::arm_injection(sc, kind, /*at_event=*/150);
    const AuditedLeg inc =
        run_audited(sc, /*libra=*/true, Plant::kScenarioInjection);
    const AuditedLeg full =
        run_audited(sc, /*libra=*/true, Plant::kScenarioInjection, &inc);
    ASSERT_GE(full.planted_at, 150);
    ASSERT_EQ(inc.planted_at, full.planted_at);
    EXPECT_TRUE(WithinFullSweep(inc, full));
    ASSERT_FALSE(full.diags.empty());
    EXPECT_EQ(full.diags.front().event_id, full.planted_at)
        << full.diags.front().detail;
    ASSERT_FALSE(inc.diags.empty());
    EXPECT_GE(inc.diags.front().event_id, full.planted_at);
    EXPECT_LE(inc.diags.front().event_id,
              full.planted_at + analysis::InvariantAuditor::kFullSweepPeriod)
        << inc.diags.front().detail;
  };
  for_fuzzed_scenarios(7, 0, 3, check);
  for_fuzzed_scenarios(11, 0, 3, check);
}

TEST(AuditDifferential, InjectedConservationViolationFiresAlike) {
  expect_injection_caught_alike(chaos::InjectKind::kConservation);
}

TEST(AuditDifferential, InjectedTenantQuotaViolationFiresAlike) {
  expect_injection_caught_alike(chaos::InjectKind::kTenantQuota);
}

}  // namespace
}  // namespace libra
