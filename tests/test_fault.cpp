// Fault-injection & resilience subsystem tests: plan/profile validation,
// injector determinism, churn integration (crash -> kill -> retry -> recover)
// and the harvest-safety invariant — no grant from a dead node survives it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "baselines/default_policy.h"
#include "core/libra_policy.h"
#include "core/profiler.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "gen/trace_source.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace libra {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::Invocation;
using sim::NodeId;
using sim::Resources;
using sim::RunMetrics;
using sim::fault::ChurnEvent;
using sim::fault::FaultInjector;
using sim::fault::FaultPlan;
using sim::fault::FaultProfile;
using sim::fault::FaultWindow;
using sim::fault::kAllNodes;
using sim::fault::kNever;
using sim::fault::NodeOutage;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

// ---------------------------------------------------------------- validation

TEST(FaultPlan, RejectsUnknownNodeAndInvertedBounds) {
  FaultPlan plan;
  plan.outages.push_back({/*node=*/7, /*down_at=*/1.0, /*up_at=*/2.0});
  EXPECT_THROW(plan.validate(/*num_nodes=*/4), std::invalid_argument);

  plan.outages = {{0, /*down_at=*/5.0, /*up_at=*/5.0}};  // zero-length
  EXPECT_THROW(plan.validate(4), std::invalid_argument);

  plan.outages = {{0, 1.0, 2.0}};
  plan.ping_blackouts = {{kAllNodes, /*from=*/3.0, /*until=*/1.0}};
  EXPECT_THROW(plan.validate(4), std::invalid_argument);

  plan.ping_blackouts = {{kAllNodes, 1.0, 3.0}};
  EXPECT_NO_THROW(plan.validate(4));
}

TEST(FaultProfile, RejectsBadProbabilitiesAndTimes) {
  FaultProfile p;
  p.ping_drop_prob = 1.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = FaultProfile{};
  p.node_mtbf = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = FaultProfile{};
  p.node_mtbf = 10.0;
  p.node_mttr = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = FaultProfile{};
  p.ping_delay_prob = 0.1;
  p.ping_delay_mean = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  EXPECT_NO_THROW(FaultProfile{}.validate());
}

TEST(EngineValidation, RejectsBadConfigurations) {
  auto policy = std::make_shared<baselines::DefaultPolicy>();

  EngineConfig empty;  // no nodes
  EXPECT_THROW(Engine(empty, policy), std::invalid_argument);

  EngineConfig shards;
  shards.node_capacities = {Resources{8, 8192}};
  shards.num_shards = 0;
  EXPECT_THROW(Engine(shards, policy), std::invalid_argument);

  EngineConfig badcap;
  badcap.node_capacities = {Resources{0, 8192}};
  EXPECT_THROW(Engine(badcap, policy), std::invalid_argument);

  EngineConfig badplan;
  badplan.node_capacities = {Resources{8, 8192}};
  badplan.fault_plan.outages.push_back({/*node=*/3, 1.0, 2.0});
  EXPECT_THROW(Engine(badplan, policy), std::invalid_argument);
}

TEST(EngineValidation, SchedWorkersMustBeOne) {
  // The engine decides on one thread; any other worker count is an error,
  // not a request the engine quietly ignores.
  EngineConfig cfg;
  cfg.node_capacities = {Resources{8, 8192}};
  for (const int workers : {0, 2, 4}) {
    cfg.sched_workers = workers;
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << workers;
  }
  cfg.sched_workers = 1;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(EngineValidation, RejectsUnsortedTrace) {
  EngineConfig cfg;
  cfg.node_capacities = {Resources{8, 8192}};
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  auto trace = workload::burst_trace(*catalog(), 2, 11);
  trace[0].arrival = 5.0;  // arrives after trace[1] at t=0
  // Thrown by the MaterializedSource constructor; ArrivalListSource below
  // covers the engine's own order check.
  EXPECT_THROW(
      {
        workload::MaterializedSource source(std::move(trace));
        engine.run(source);
      },
      std::invalid_argument);
}

/// Yields invocations with the given arrival times verbatim — no order or
/// NaN checks of its own, so the engine's admission checks are what a test
/// exercises.
class ArrivalListSource final : public gen::TraceSource {
 public:
  explicit ArrivalListSource(const std::vector<double>& arrivals)
      : trace_(workload::burst_trace(*catalog(), arrivals.size(), 11)) {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      trace_[i].arrival = arrivals[i];
      horizon_ = std::fmax(horizon_, arrivals[i]);
    }
  }
  std::optional<sim::SimTime> peek_arrival() override {
    if (pos_ >= trace_.size()) return std::nullopt;
    return trace_[pos_].arrival;
  }
  Invocation next() override { return std::move(trace_[pos_++]); }
  sim::SimTime horizon() const override { return horizon_; }

 private:
  std::vector<Invocation> trace_;
  size_t pos_ = 0;
  sim::SimTime horizon_ = 0.0;
};

EngineConfig one_node_config() {
  EngineConfig cfg;
  cfg.node_capacities = {Resources{8, 8192}};
  return cfg;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(EngineValidation, RejectsNanArrivalMidStream) {
  // A NaN past the first arrival must never reach the event queue: there it
  // breaks the time ordering and the run never returns.
  Engine engine(one_node_config(),
                std::make_shared<baselines::DefaultPolicy>());
  ArrivalListSource source({0.0, kNaN, 0.0});
  EXPECT_THROW(engine.run(source), std::invalid_argument);
}

TEST(EngineValidation, RejectsOutOfOrderStream) {
  for (const auto& arrivals :
       std::vector<std::vector<double>>{{0.0, -1.0}, {1.0, 0.0}}) {
    Engine engine(one_node_config(),
                  std::make_shared<baselines::DefaultPolicy>());
    ArrivalListSource source(arrivals);
    EXPECT_THROW(engine.run(source), std::invalid_argument)
        << arrivals[0] << " then " << arrivals[1];
  }
}

TEST(EngineValidation, RejectsNanArrivalInMaterializedTrace) {
  auto trace = workload::burst_trace(*catalog(), 3, 11);
  trace[1].arrival = kNaN;
  // The constructor's order check cannot see a NaN; the engine must.
  workload::MaterializedSource source(std::move(trace));
  Engine engine(one_node_config(),
                std::make_shared<baselines::DefaultPolicy>());
  EXPECT_THROW(engine.run(source), std::invalid_argument);
}

// ------------------------------------------------------------------ injector

TEST(FaultInjector, ChurnTimelineIsDeterministicAndAlternating) {
  FaultProfile profile;
  profile.seed = 42;
  profile.node_mtbf = 30.0;
  profile.node_mttr = 5.0;
  FaultInjector a(FaultPlan{}, profile, /*num_nodes=*/4, /*horizon=*/300.0);
  FaultInjector b(FaultPlan{}, profile, 4, 300.0);
  ASSERT_FALSE(a.churn().empty());
  ASSERT_EQ(a.churn().size(), b.churn().size());
  for (size_t i = 0; i < a.churn().size(); ++i) {
    EXPECT_EQ(a.churn()[i].time, b.churn()[i].time);
    EXPECT_EQ(a.churn()[i].node, b.churn()[i].node);
    EXPECT_EQ(a.churn()[i].down, b.churn()[i].down);
  }
  // Per node: strictly alternating down/up with increasing timestamps.
  for (NodeId n = 0; n < 4; ++n) {
    bool expect_down = true;
    double last = -1.0;
    for (const auto& ev : a.churn()) {
      if (ev.node != n) continue;
      EXPECT_EQ(ev.down, expect_down);
      EXPECT_GT(ev.time, last);
      last = ev.time;
      expect_down = !expect_down;
    }
  }
  // A different seed yields a different timeline.
  profile.seed = 43;
  FaultInjector c(FaultPlan{}, profile, 4, 300.0);
  bool differs = c.churn().size() != a.churn().size();
  for (size_t i = 0; !differs && i < a.churn().size(); ++i)
    differs = c.churn()[i].time != a.churn()[i].time;
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, MergesOverlappingScriptedAndSampledOutages) {
  FaultPlan plan;
  plan.outages.push_back({0, 10.0, 20.0});
  plan.outages.push_back({0, 15.0, 30.0});  // overlaps the first
  plan.outages.push_back({0, 40.0, kNever});
  FaultInjector inj(plan, FaultProfile{}, /*num_nodes=*/1, /*horizon=*/100.0);
  // Expect: down@10, up@30, down@40 (no recovery for the kNever outage).
  ASSERT_EQ(inj.churn().size(), 3u);
  EXPECT_TRUE(inj.churn()[0].down);
  EXPECT_DOUBLE_EQ(inj.churn()[0].time, 10.0);
  EXPECT_FALSE(inj.churn()[1].down);
  EXPECT_DOUBLE_EQ(inj.churn()[1].time, 30.0);
  EXPECT_TRUE(inj.churn()[2].down);
  EXPECT_DOUBLE_EQ(inj.churn()[2].time, 40.0);
}

TEST(FaultInjector, ScriptedWindowsShortCircuitWithoutRandomness) {
  FaultPlan plan;
  plan.ping_blackouts = {{kAllNodes, 2.0, 6.0}};
  plan.cold_start_failures = {{/*node=*/1, 0.0, 10.0}};
  plan.monitor_blackouts = {{0, 0.0, kNever}};
  FaultInjector inj(plan, FaultProfile{}, 2, 100.0);
  EXPECT_TRUE(inj.active());
  EXPECT_TRUE(inj.drop_health_ping(0, 3.0));
  EXPECT_FALSE(inj.drop_health_ping(0, 6.0));  // half-open window
  EXPECT_TRUE(inj.fail_cold_start(1, 5.0));
  EXPECT_FALSE(inj.fail_cold_start(0, 5.0));  // other node untargeted
  EXPECT_TRUE(inj.suppress_monitor_tick(0, 99.0));
  EXPECT_FALSE(inj.suppress_monitor_tick(1, 99.0));
  EXPECT_DOUBLE_EQ(inj.health_ping_delay(0, 3.0), 0.0);
}

TEST(FaultInjector, InactiveWhenNothingConfigured) {
  FaultInjector inj(FaultPlan{}, FaultProfile{}, 4, 100.0);
  EXPECT_FALSE(inj.active());
  EXPECT_TRUE(inj.churn().empty());
}

// --------------------------------------------------------------- node guards

TEST(NodeGuards, FinishWithNothingRunningThrows) {
  sim::Node node(0, Resources{8, 8192}, /*num_shards=*/1);
  EXPECT_THROW(node.invocation_finished(), std::logic_error);
  node.invocation_started();
  EXPECT_NO_THROW(node.invocation_finished());
  EXPECT_THROW(node.invocation_finished(), std::logic_error);
}

TEST(NodeGuards, DownNodeRejectsReservations) {
  sim::Node node(0, Resources{8, 8192}, 1);
  EXPECT_TRUE(node.try_reserve(0, Resources{1, 128}));
  node.release(0, Resources{1, 128});
  node.set_up(false);
  EXPECT_FALSE(node.try_reserve(0, Resources{1, 128}));
  node.set_up(true);
  EXPECT_TRUE(node.try_reserve(0, Resources{1, 128}));
}

// ----------------------------------------------------------------- churn e2e

/// Forwards everything to an inner LibraPolicy and, right after the crash
/// hook ran, checks the harvest-safety invariant: the dead node's pool holds
/// no idle entries and no outstanding grants.
class PoolInvariantObserver final : public sim::Policy {
 public:
  explicit PoolInvariantObserver(std::shared_ptr<core::LibraPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void predict(Invocation& inv) override { inner_->predict(inv); }
  NodeId select_node(Invocation& inv, sim::EngineApi& api) override {
    return inner_->select_node(inv, api);
  }
  sim::AllocationPlan plan_allocation(Invocation& inv,
                                      sim::EngineApi& api) override {
    return inner_->plan_allocation(inv, api);
  }
  bool wants_monitor(const Invocation& inv) const override {
    return inner_->wants_monitor(inv);
  }
  void on_monitor(Invocation& inv, sim::EngineApi& api) override {
    inner_->on_monitor(inv, api);
  }
  void on_complete(Invocation& inv, sim::EngineApi& api) override {
    inner_->on_complete(inv, api);
  }
  void on_oom(Invocation& inv, sim::EngineApi& api) override {
    inner_->on_oom(inv, api);
  }
  void on_health_ping(NodeId node, sim::EngineApi& api) override {
    inner_->on_health_ping(node, api);
  }
  void on_node_down(NodeId node, sim::EngineApi& api) override {
    inner_->on_node_down(node, api);
    ++down_calls;
    pool_clean_after_down = pool_clean_after_down &&
                            inner_->pool(node).entry_count() == 0 &&
                            inner_->pool(node).outstanding_borrows() == 0;
  }
  void on_node_up(NodeId node, sim::EngineApi& api) override {
    inner_->on_node_up(node, api);
    ++up_calls;
  }
  sim::PolicyStats stats() const override { return inner_->stats(); }

  int down_calls = 0;
  int up_calls = 0;
  bool pool_clean_after_down = true;

 private:
  std::shared_ptr<core::LibraPolicy> inner_;
};

std::shared_ptr<core::LibraPolicy> make_libra() {
  core::ProfilerConfig pcfg;
  auto profiler = std::make_shared<core::Profiler>(pcfg, catalog());
  profiler->prewarm(*catalog(), 1234, 30);
  return core::LibraPolicy::with_coverage_scheduler(core::LibraPolicyConfig{},
                                                    profiler);
}

RunMetrics run_scripted_crash(PoolInvariantObserver** observer_out) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.fault_plan.outages.push_back({/*node=*/0, /*down_at=*/5.0,
                                    /*up_at=*/20.0});
  auto observer = std::make_shared<PoolInvariantObserver>(make_libra());
  if (observer_out) *observer_out = observer.get();
  Engine engine(cfg, observer);
  workload::MaterializedSource source(
      workload::multi_trace(*catalog(), /*rpm=*/120, /*seed=*/5));
  auto m = engine.run(source);
  return m;
}

TEST(ChurnIntegration, ScriptedCrashRecoversSafely) {
  PoolInvariantObserver* obs = nullptr;
  EngineConfig cfg = exp::multi_node_config();
  cfg.fault_plan.outages.push_back({0, 5.0, 20.0});
  auto observer = std::make_shared<PoolInvariantObserver>(make_libra());
  obs = observer.get();
  Engine engine(cfg, observer);
  workload::MaterializedSource source(
      workload::multi_trace(*catalog(), 120, 5));
  auto m = engine.run(source);

  // The crash and the recovery both happened, and the dead node's pool was
  // fully drained before the engine reaped it.
  EXPECT_EQ(obs->down_calls, 1);
  EXPECT_EQ(obs->up_calls, 1);
  EXPECT_TRUE(obs->pool_clean_after_down);
  EXPECT_EQ(m.node_crashes, 1);
  EXPECT_EQ(m.node_recoveries, 1);
  ASSERT_EQ(m.recovery_latencies.size(), 1u);
  EXPECT_NEAR(m.recovery_latencies[0], 15.0, 1e-9);

  // Every invocation is accounted for: completed or (at worst) lost — never
  // silently stuck.
  EXPECT_EQ(m.incomplete, 0);
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed || rec.lost) << "invocation " << rec.id;
    EXPECT_FALSE(rec.completed && rec.lost);
  }
  EXPECT_GT(m.goodput(), 0.9);
}

TEST(ChurnIntegration, SameSeedAndPlanReproduceBitIdenticalMetrics) {
  auto a = run_scripted_crash(nullptr);
  auto b = run_scripted_crash(nullptr);
  ASSERT_EQ(a.invocations.size(), b.invocations.size());
  for (size_t i = 0; i < a.invocations.size(); ++i) {
    const auto& ra = a.invocations[i];
    const auto& rb = b.invocations[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.lost, rb.lost);
    EXPECT_EQ(ra.fault_retries, rb.fault_retries);
    EXPECT_EQ(ra.finish, rb.finish);  // exact, not approximate
    EXPECT_EQ(ra.response_latency, rb.response_latency);
    EXPECT_EQ(ra.reassigned_core_seconds, rb.reassigned_core_seconds);
  }
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.lost_invocations, b.lost_invocations);
  EXPECT_EQ(a.stale_snapshot_decisions, b.stale_snapshot_decisions);
  EXPECT_EQ(a.makespan_end, b.makespan_end);
  EXPECT_EQ(a.policy.pool_revocations, b.policy.pool_revocations);
}

TEST(ChurnIntegration, ProbabilisticFaultsAreSeedReproducible) {
  auto run_once = [] {
    EngineConfig cfg = exp::multi_node_config();
    cfg.fault_profile.seed = 99;
    cfg.fault_profile.node_mtbf = 40.0;
    cfg.fault_profile.node_mttr = 5.0;
    cfg.fault_profile.ping_drop_prob = 0.05;
    cfg.fault_profile.cold_start_fail_prob = 0.02;
    cfg.placement_timeout = 60.0;
    Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
    workload::MaterializedSource source(
        workload::multi_trace(*catalog(), 60, 3));
    return engine.run(source);
  };
  auto a = run_once();
  auto b = run_once();
  ASSERT_EQ(a.invocations.size(), b.invocations.size());
  for (size_t i = 0; i < a.invocations.size(); ++i) {
    EXPECT_EQ(a.invocations[i].finish, b.invocations[i].finish);
    EXPECT_EQ(a.invocations[i].lost, b.invocations[i].lost);
  }
  EXPECT_EQ(a.node_crashes, b.node_crashes);
  EXPECT_EQ(a.dropped_health_pings, b.dropped_health_pings);
  EXPECT_EQ(a.cold_start_failures, b.cold_start_failures);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
}

TEST(ChurnIntegration, CrashedWorkRetriesOntoSurvivingNode) {
  EngineConfig cfg;
  cfg.node_capacities = {Resources{16, 16384}, Resources{16, 16384}};
  cfg.num_shards = 1;
  cfg.fault_plan.outages.push_back({0, /*down_at=*/0.7, /*up_at=*/kNever});
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(
      workload::burst_trace(*catalog(), 12, 21));
  auto m = engine.run(source);
  EXPECT_EQ(m.node_crashes, 1);
  EXPECT_EQ(m.node_recoveries, 0);
  EXPECT_GT(m.fault_retries, 0);
  EXPECT_EQ(m.incomplete, 0);
  // Node 1 survives with enough capacity: the retried work must complete.
  size_t completed = 0;
  for (const auto& rec : m.invocations) completed += rec.completed ? 1 : 0;
  EXPECT_EQ(completed, m.invocations.size());
}

TEST(ChurnIntegration, RetryBudgetExhaustionLosesInvocations) {
  EngineConfig cfg = exp::single_node_config();
  cfg.fault_plan.outages.push_back({0, /*down_at=*/0.7, /*up_at=*/kNever});
  cfg.placement_timeout = 5.0;
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(workload::burst_trace(*catalog(), 5, 31));
  auto m = engine.run(source);
  EXPECT_EQ(m.node_crashes, 1);
  EXPECT_GT(m.lost_invocations, 0);
  EXPECT_LT(m.goodput(), 1.0);
  EXPECT_EQ(m.incomplete, 0);  // lost, not stuck — the run terminated
  for (const auto& rec : m.invocations)
    EXPECT_TRUE(rec.completed || rec.lost);
}

TEST(ChurnIntegration, ColdStartFailureWindowRetriesThenSucceeds) {
  EngineConfig cfg = exp::single_node_config();
  cfg.fault_plan.cold_start_failures = {{kAllNodes, 0.0, 0.2}};
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(workload::burst_trace(*catalog(), 3, 41));
  auto m = engine.run(source);
  EXPECT_GT(m.cold_start_failures, 0);
  EXPECT_GT(m.fault_retries, 0);
  EXPECT_EQ(m.incomplete, 0);
  for (const auto& rec : m.invocations)
    EXPECT_TRUE(rec.completed || rec.lost);
}

TEST(ChurnIntegration, PingBlackoutCountsDropsWithoutLosingWork) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.fault_plan.ping_blackouts = {{kAllNodes, 1.0, 6.0}};
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(workload::multi_trace(*catalog(), 60, 7));
  auto m = engine.run(source);
  EXPECT_GT(m.dropped_health_pings, 0);
  EXPECT_EQ(m.node_crashes, 0);
  EXPECT_DOUBLE_EQ(m.goodput(), 1.0);
}

TEST(ChurnIntegration, MonitorBlackoutBlindsTheSafeguard) {
  EngineConfig cfg = exp::single_node_config();
  cfg.fault_plan.monitor_blackouts = {{kAllNodes, 0.0, kNever}};
  Engine engine(cfg, make_libra());
  workload::MaterializedSource source(
      workload::single_node_trace(*catalog(), 7));
  auto m = engine.run(source);
  EXPECT_GT(m.suppressed_monitor_ticks, 0);
  EXPECT_EQ(m.policy.safeguard_triggers, 0);
}

/// Keeps sending work to node 0 no matter what — models a controller whose
/// health view lags a crash.
class PinnedPolicy final : public sim::Policy {
 public:
  std::string name() const override { return "pinned-to-node-0"; }
  void predict(Invocation& inv) override {
    inv.pred_demand = inv.user_alloc;
  }
  NodeId select_node(Invocation&, sim::EngineApi&) override { return 0; }
  sim::AllocationPlan plan_allocation(Invocation& inv,
                                      sim::EngineApi&) override {
    return {inv.user_alloc};
  }
};

TEST(ChurnIntegration, StaleHealthViewDecisionsAreCounted) {
  EngineConfig cfg;
  cfg.node_capacities = {Resources{8, 8192}, Resources{8, 8192}};
  cfg.num_shards = 1;
  cfg.fault_plan.outages.push_back({0, /*down_at=*/0.2, /*up_at=*/kNever});
  cfg.placement_timeout = 3.0;
  Engine engine(cfg, std::make_shared<PinnedPolicy>());
  workload::MaterializedSource source(workload::burst_trace(*catalog(), 5, 51));
  auto m = engine.run(source);
  // Every post-crash decision picked the dead node off the stale view.
  EXPECT_GT(m.stale_snapshot_decisions, 0);
  EXPECT_GT(m.lost_invocations, 0);
  EXPECT_EQ(m.incomplete, 0);
}

TEST(ChurnIntegration, FaultFreeRunsAreUnperturbed) {
  // The fault machinery must be invisible when nothing is configured: a run
  // with a default-constructed plan/profile matches one from before the
  // subsystem existed (no retries, losses, drops or suppressions).
  EngineConfig cfg = exp::multi_node_config();
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(workload::multi_trace(*catalog(), 60, 7));
  auto m = engine.run(source);
  EXPECT_EQ(m.node_crashes, 0);
  EXPECT_EQ(m.fault_retries, 0);
  EXPECT_EQ(m.lost_invocations, 0);
  EXPECT_EQ(m.dropped_health_pings, 0);
  EXPECT_EQ(m.stale_snapshot_decisions, 0);
  EXPECT_DOUBLE_EQ(m.goodput(), 1.0);
}

}  // namespace
}  // namespace libra
