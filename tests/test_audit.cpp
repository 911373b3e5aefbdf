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

  // every_n defaults to 1: every dispatched event is swept, and a Libra run
  // mutates pools so the listener path fired too.
  EXPECT_GT(auditor.stats().engine_events, 0);
  EXPECT_EQ(auditor.stats().sweeps, auditor.stats().engine_events);
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

  ASSERT_GT(auditor.stats().engine_events, 10);
  EXPECT_LT(auditor.stats().sweeps, auditor.stats().engine_events);
  // Exactly the events whose id is a multiple of 5.
  EXPECT_NEAR(static_cast<double>(auditor.stats().sweeps),
              static_cast<double>(auditor.stats().engine_events) / 5.0, 1.0);
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
// InvariantAuditor: one seeded violation per sweep and recycle check
// ---------------------------------------------------------------------------

/// Minimal EngineApi serving nodes, per-node placed lists and invocation
/// records, so each check can be driven without an engine run. Liveness
/// follows the engine: a record is alive while it is present and not done.
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
/// for recycling. Each test first shows the sweep (or the recycle check) is
/// silent, then seeds one violation and expects that check's diagnostic.
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

  /// Diagnostic details raised by one sampled sweep.
  std::vector<std::string> sweep() {
    return capture(sim::EngineEvent{"test", 0});
  }
  /// Diagnostic details raised by a sampled recycle event for `id` (the
  /// recycle check, then the sweep).
  std::vector<std::string> recycle(sim::InvocationId id) {
    return capture(sim::EngineEvent{"recycle", 0, id});
  }

  FakeApi api_{3};
  std::shared_ptr<core::LibraPolicy> policy_;
  analysis::InvariantAuditor auditor_;

 private:
  std::vector<std::string> capture(const sim::EngineEvent& ev) {
    AuditCapture capture;
    auditor_.on_engine_event(api_, ev);
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

TEST_F(AuditorChecks, HealthyClusterIsSilent) {
  EXPECT_TRUE(Silent(sweep()));
  EXPECT_TRUE(Silent(recycle(4)));
}

TEST_F(AuditorChecks, NodeAllocationDifferentFromPlacedSumFires) {
  ASSERT_TRUE(Silent(sweep()));
  ASSERT_TRUE(api_.node(1).try_reserve(0, {2.0, 512.0}));  // nobody's
  EXPECT_TRUE(Mentions(sweep(), "node 1 allocated totals (cpu 3, mem 768) "
                                "!= sum of placed reservations (cpu 1, mem "
                                "256) over 1 invocations"));
}

TEST_F(AuditorChecks, PlacedInvocationThatIsDoneFires) {
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(3).done = true;
  EXPECT_TRUE(Mentions(sweep(), "placed invocation 3 is completed or gone"));
}

TEST_F(AuditorChecks, PlacedInvocationThatIsGoneFires) {
  ASSERT_TRUE(Silent(sweep()));
  api_.list(1).push_back(9);  // no record behind it
  EXPECT_TRUE(Mentions(sweep(), "placed invocation 9 is completed or gone"));
}

TEST_F(AuditorChecks, PlacedInvocationOnTheWrongNodeListFires) {
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(3).node = 0;  // listed (and reserved) on node 1
  EXPECT_TRUE(Mentions(sweep(), "placed invocation 3 is listed on node 1 but "
                                "references node 0"));
}

TEST_F(AuditorChecks, DownNodeHoldingAReservationFires) {
  ASSERT_TRUE(Silent(sweep()));
  api_.node(1).set_up(false);
  EXPECT_TRUE(Mentions(sweep(), "down node 1 still holds reservations (cpu 1, "
                                "mem 256, 0 running)"));
}

TEST_F(AuditorChecks, StashedPredictionOfFinishedInvocationFires) {
  ASSERT_TRUE(Silent(sweep()));
  policy_->predict(api_.add(5));
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(5).done = true;  // finished without on_finalized
  EXPECT_TRUE(Mentions(sweep(), "raw-prediction stash holds invocation 5 "
                                "which is completed or gone"));
}

TEST_F(AuditorChecks, GrantFromFinishedSourceFires) {
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(1).done = true;
  EXPECT_TRUE(Mentions(sweep(), "pool of node 0 holds a grant sourced from "
                                "invocation 1 which is completed or gone "
                                "(borrower 2)"));
}

TEST_F(AuditorChecks, GrantToFinishedBorrowerFires) {
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(2).done = true;
  EXPECT_TRUE(Mentions(sweep(), "pool of node 0 holds a grant lent to "
                                "invocation 2 which is completed or gone "
                                "(source 1)"));
}

TEST_F(AuditorChecks, IdleEntryOfFinishedSourceFires) {
  // An entry with no grants: only the entry-liveness check can see it.
  api_.add(6);
  policy_->pool(2).put(6, {1.0, 128.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  api_.invocation(6).done = true;
  EXPECT_TRUE(Mentions(sweep(), "pool of node 2 holds an entry sourced from "
                                "invocation 6 which is completed or gone "
                                "(idle cpu 1, mem 128)"));
}

TEST_F(AuditorChecks, NonEmptyPoolOfDownNodeFires) {
  api_.add(6);
  policy_->pool(2).put(6, {1.0, 128.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  api_.node(2).set_up(false);
  EXPECT_TRUE(Mentions(sweep(), "pool of DOWN node 2 is not empty (1 entries, "
                                "0 grants)"));
}

TEST_F(AuditorChecks, EntryOfQuarantinedFunctionFires) {
  ASSERT_TRUE(Silent(sweep()));
  policy_->trust_manager_for_test()->quarantine_for_audit_test(0, 40.0);
  EXPECT_TRUE(Mentions(sweep(), "holds an entry sourced from invocation 1 of "
                                "QUARANTINED function 0"));
}

TEST_F(AuditorChecks, SweepChecksPoolConservation) {
  ASSERT_TRUE(Silent(sweep()));
  policy_->pool(0).corrupt_for_audit_test(1, {0.5, 0.0});  // no pool event
  EXPECT_TRUE(Mentions(sweep(), "test: conservation violated for source 1"));
}

TEST_F(AuditorChecks, UnsortedPoolEntriesFire) {
  api_.add(5);
  policy_->pool(0).put(5, {0.5, 64.0}, 100.0, 2.0);
  ASSERT_TRUE(Silent(sweep()));
  policy_->pool(0).corrupt_order_for_audit_test();
  EXPECT_TRUE(Mentions(sweep(), "test: pool entries out of order: source 1 "
                                "follows source 5"));
}

TEST_F(AuditorChecks, GrantWithoutSourceEntryFires) {
  ASSERT_TRUE(Silent(sweep()));
  policy_->pool(0).orphan_grants_for_audit_test(1);
  EXPECT_TRUE(Mentions(sweep(), "test: outstanding grant references source 1 "
                                "with no pool entry"));
}

TEST_F(AuditorChecks, NegativeGrantFires) {
  ASSERT_TRUE(Silent(sweep()));
  // Ledger bumped in lockstep: conservation holds, only the sign is wrong.
  policy_->pool(0).corrupt_tenant_for_audit_test(1, 3, 0, {-0.25, 0.0});
  EXPECT_TRUE(Mentions(sweep(), "test: negative grant from source 1 to "
                                "borrower 3"));
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

}  // namespace
}  // namespace libra
