// Misprediction-resilience layer: prediction-fault injection
// (core::FaultyPredictor), the per-function trust circuit breaker + adaptive
// margins (core::TrustManager), OOM graceful degradation (engine re-dispatch
// on the separate OOM budget), the §4.3.2 histogram fallback under predictor
// outage, and the auditor's quarantine invariant.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "baselines/schedulers.h"
#include "core/libra_policy.h"
#include "core/predictor_fault.h"
#include "core/profiler.h"
#include "core/trust_manager.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "sim/fault/fault_plan.h"
#include "util/audit.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

using core::FaultyPredictor;
using core::TrustConfig;
using core::TrustManager;
using core::TrustState;
using sim::Invocation;
using sim::Resources;
using sim::fault::kAllFunctions;
using sim::fault::kNever;
using sim::fault::PredFaultKind;
using sim::fault::PredictionFault;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

Invocation sample_invocation(int func, uint64_t seed, double arrival) {
  util::Rng rng(seed);
  return workload::make_invocation(*catalog(), 0, func,
                                   catalog()->at(func).sample_input(rng),
                                   arrival);
}

/// Deterministic inner predictor with a controllable output.
class ConstPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "const"; }
  void predict(Invocation& inv) override {
    inv.pred_demand = demand;
    inv.pred_duration = 2.0;
    inv.pred_size_related = true;
    inv.first_seen = false;
  }
  void observe(const core::Observation&) override {}
  Resources demand{4.0, 1024.0};
};

// ---------------- PredictionFault validation ----------------

TEST(PredictionFaultValidation, RejectsNonsensicalFaults) {
  auto plan_with = [](PredictionFault f) {
    sim::fault::FaultPlan plan;
    plan.prediction_faults.push_back(f);
    return plan;
  };
  // Negative function id that is not the kAllFunctions sentinel.
  EXPECT_THROW(plan_with({PredFaultKind::kBias, -7, 0.0, kNever, 0.5})
                   .validate(4),
               std::invalid_argument);
  // Negative start.
  EXPECT_THROW(plan_with({PredFaultKind::kBias, 0, -1.0, kNever, 0.5})
                   .validate(4),
               std::invalid_argument);
  // Inverted window.
  EXPECT_THROW(plan_with({PredFaultKind::kBias, 0, 10.0, 5.0, 0.5})
                   .validate(4),
               std::invalid_argument);
  // Non-positive bias severity.
  EXPECT_THROW(plan_with({PredFaultKind::kBias, 0, 0.0, kNever, 0.0})
                   .validate(4),
               std::invalid_argument);
  // Negative noise sigma.
  EXPECT_THROW(plan_with({PredFaultKind::kNoise, 0, 0.0, kNever, -0.1})
                   .validate(4),
               std::invalid_argument);
  // Drift without a finite end.
  EXPECT_THROW(plan_with({PredFaultKind::kDrift, 0, 0.0, kNever, 0.5})
                   .validate(4),
               std::invalid_argument);
  // A healthy storm passes.
  EXPECT_NO_THROW(plan_with({PredFaultKind::kDrift, kAllFunctions, 0.0, 60.0,
                             0.5})
                      .validate(4));
}

TEST(PredictionFaultValidation, PredictionFaultsDoNotActivateEngineFaults) {
  // Prediction storms are consumed at the predictor layer; a plan holding
  // only them must keep the engine's fault machinery off.
  sim::fault::FaultPlan plan;
  plan.prediction_faults.push_back(
      {PredFaultKind::kBias, kAllFunctions, 0.0, kNever, 0.5});
  EXPECT_TRUE(plan.empty());
}

// ---------------- FaultyPredictor ----------------

TEST(FaultyPredictor, NullInnerThrows) {
  EXPECT_THROW(FaultyPredictor(nullptr, {}, 1), std::invalid_argument);
}

TEST(FaultyPredictor, BiasScalesOnlyInsideWindow) {
  auto inner = std::make_shared<ConstPredictor>();
  FaultyPredictor faulty(
      inner, {{PredFaultKind::kBias, kAllFunctions, 10.0, 20.0, 0.5}}, 1);

  auto before = sample_invocation(0, 1, 5.0);
  faulty.predict(before);
  EXPECT_DOUBLE_EQ(before.pred_demand.cpu, 4.0);

  auto inside = sample_invocation(0, 1, 15.0);
  faulty.predict(inside);
  EXPECT_DOUBLE_EQ(inside.pred_demand.cpu, 2.0);
  EXPECT_DOUBLE_EQ(inside.pred_demand.mem, 512.0);

  auto after = sample_invocation(0, 1, 25.0);
  faulty.predict(after);
  EXPECT_DOUBLE_EQ(after.pred_demand.cpu, 4.0);
  EXPECT_EQ(faulty.stats().biased, 1);
}

TEST(FaultyPredictor, DriftRampsTowardSeverity) {
  auto inner = std::make_shared<ConstPredictor>();
  FaultyPredictor faulty(
      inner, {{PredFaultKind::kDrift, kAllFunctions, 0.0, 100.0, 0.5}}, 1);
  auto start = sample_invocation(0, 1, 0.0);
  faulty.predict(start);
  EXPECT_DOUBLE_EQ(start.pred_demand.cpu, 4.0);  // factor 1.0 at `from`
  auto mid = sample_invocation(0, 1, 50.0);
  faulty.predict(mid);
  EXPECT_DOUBLE_EQ(mid.pred_demand.cpu, 3.0);  // halfway to 0.5x
  auto end = sample_invocation(0, 1, 99.999);
  faulty.predict(end);
  EXPECT_NEAR(end.pred_demand.cpu, 2.0, 1e-3);
}

TEST(FaultyPredictor, StuckServesLastPreWindowPrediction) {
  auto inner = std::make_shared<ConstPredictor>();
  FaultyPredictor faulty(
      inner, {{PredFaultKind::kStuck, kAllFunctions, 10.0, 20.0, 1.0}}, 1);

  auto warm = sample_invocation(0, 1, 5.0);
  faulty.predict(warm);  // snapshot taken: {4.0, 1024.0}

  inner->demand = {8.0, 2048.0};  // the live model moved on
  auto stuck = sample_invocation(0, 1, 15.0);
  faulty.predict(stuck);
  EXPECT_DOUBLE_EQ(stuck.pred_demand.cpu, 4.0);  // stale snapshot served
  EXPECT_EQ(faulty.stats().stuck_served, 1);

  auto recovered = sample_invocation(0, 1, 25.0);
  faulty.predict(recovered);
  EXPECT_DOUBLE_EQ(recovered.pred_demand.cpu, 8.0);
}

TEST(FaultyPredictor, NoiseIsSeedDeterministicPerFunction) {
  const std::vector<PredictionFault> storm = {
      {PredFaultKind::kNoise, kAllFunctions, 0.0, kNever, 0.6}};
  auto run = [&](uint64_t seed) {
    FaultyPredictor faulty(std::make_shared<ConstPredictor>(), storm, seed);
    std::vector<double> out;
    for (int i = 0; i < 8; ++i) {
      auto inv = sample_invocation(i % 2, 1, static_cast<double>(i));
      faulty.predict(inv);
      out.push_back(inv.pred_demand.cpu);
    }
    return out;
  };
  EXPECT_EQ(run(7), run(7));   // bit-identical replay
  EXPECT_NE(run(7), run(8));   // the seed actually matters
}

TEST(FaultyPredictor, OutageWithoutProfilerServesUserAllocation) {
  FaultyPredictor faulty(
      std::make_shared<ConstPredictor>(),
      {{PredFaultKind::kOutage, kAllFunctions, 0.0, kNever, 1.0}}, 1);
  auto inv = sample_invocation(0, 1, 5.0);
  faulty.predict(inv);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
  EXPECT_FALSE(inv.pred_size_related);
  EXPECT_EQ(faulty.stats().outage_served, 1);
}

// ---------------- Histogram fallback under predictor outage ----------------

TEST(PredictorOutage, HistogramFallbackServesDuringOutageAndMlRecovers) {
  // Force-ML profiler: outside the outage every trained function is served
  // by the ML models (pred_size_related). During the outage window the
  // §4.3.2 histogram path must serve instead, and the ML path must come
  // back once the window closes.
  core::ProfilerConfig pcfg;
  pcfg.force_ml = true;
  auto profiler = std::make_shared<core::Profiler>(pcfg, catalog());
  profiler->prewarm(*catalog(), 1234, 30);
  FaultyPredictor faulty(
      profiler, {{PredFaultKind::kOutage, kAllFunctions, 10.0, 20.0, 1.0}}, 1);

  auto before = sample_invocation(0, 2, 5.0);
  faulty.predict(before);
  EXPECT_TRUE(before.pred_size_related);

  auto during = sample_invocation(0, 3, 15.0);
  faulty.predict(during);
  EXPECT_FALSE(during.pred_size_related);  // histogram path served
  EXPECT_GT(during.pred_demand.mem, 0.0);
  EXPECT_EQ(faulty.stats().outage_served, 1);

  auto after = sample_invocation(0, 4, 25.0);
  faulty.predict(after);
  EXPECT_TRUE(after.pred_size_related);  // predictions recover
}

// ---------------- Config validation (satellite) ----------------

TEST(ProfilerConfigValidation, RejectsNonsensicalKnobs) {
  core::ProfilerConfig bad;
  bad.force_ml = true;
  bad.force_histogram = true;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_NO_THROW(core::ProfilerConfig{}.validate());
  // The constructor enforces it too.
  EXPECT_THROW(core::Profiler(bad, catalog()), std::invalid_argument);
}

// ---------------- TrustManager state machine ----------------

// TrustConfig's values are constants: 3 strikes demote, 4 clean completions
// re-promote, quarantine lasts 60 s, a strike's margin boost of 0.25 halves
// every 120 s, and the margin starts at 0.15.

TEST(TrustManager, DemotesAfterConfiguredStrikes) {
  static_assert(TrustConfig::demote_strikes == 3);
  TrustManager trust;
  EXPECT_EQ(trust.state(7, 0.0), TrustState::kClosed);
  EXPECT_FALSE(trust.record_safeguard(7, 1.0));
  EXPECT_FALSE(trust.record_oom(7, 2.0));
  EXPECT_TRUE(trust.record_safeguard(7, 3.0));  // third strike demotes
  EXPECT_TRUE(trust.quarantined(7, 3.0));
  EXPECT_EQ(trust.demotions(), 1);
  EXPECT_EQ(trust.quarantined_count(3.0), 1);
  // Another function is unaffected.
  EXPECT_EQ(trust.state(8, 3.0), TrustState::kClosed);
}

TEST(TrustManager, CooldownMovesToProbationAndCleanStreakPromotes) {
  static_assert(TrustConfig::open_cooldown == 60.0);
  static_assert(TrustConfig::probation_clean == 4);
  TrustManager trust;
  EXPECT_FALSE(trust.record_oom(7, 8.0));
  EXPECT_FALSE(trust.record_oom(7, 9.0));
  EXPECT_TRUE(trust.record_oom(7, 10.0));
  EXPECT_EQ(trust.state(7, 10.0), TrustState::kOpen);
  EXPECT_EQ(trust.state(7, 69.0), TrustState::kOpen);      // still cooling
  EXPECT_EQ(trust.state(7, 70.0), TrustState::kHalfOpen);  // probation
  EXPECT_FALSE(trust.quarantined(7, 70.0));
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(trust.record_completion(7, 0.1, 71.0 + i));
    EXPECT_EQ(trust.state(7, 71.5 + i), TrustState::kHalfOpen);
  }
  EXPECT_FALSE(trust.record_completion(7, 0.0, 74.0));  // fourth clean
  EXPECT_EQ(trust.state(7, 74.5), TrustState::kClosed);
  EXPECT_EQ(trust.promotions(), 1);
}

TEST(TrustManager, StrikeOnProbationReopensImmediately) {
  TrustManager trust;
  trust.record_oom(7, 0.0);
  trust.record_oom(7, 0.5);
  EXPECT_TRUE(trust.record_oom(7, 1.0));  // demoted
  EXPECT_EQ(trust.state(7, 62.0), TrustState::kHalfOpen);
  EXPECT_TRUE(trust.record_safeguard(7, 62.0));  // one strike re-opens
  EXPECT_TRUE(trust.quarantined(7, 62.0));
  EXPECT_EQ(trust.demotions(), 2);
}

TEST(TrustManager, GrossCompletionErrorStrikes) {
  static_assert(TrustConfig::error_strike_threshold == 0.5);
  TrustManager trust;
  EXPECT_FALSE(trust.record_completion(7, 0.4, 1.0));  // under threshold
  EXPECT_FALSE(trust.record_completion(7, 0.9, 2.0));  // gross: strike 1
  EXPECT_FALSE(trust.record_completion(7, 0.9, 3.0));  // strike 2
  EXPECT_TRUE(trust.record_completion(7, 0.9, 4.0));   // strike 3 demotes
}

TEST(TrustManager, MarginWidensOnStrikeAndDecaysBack) {
  static_assert(TrustConfig::margin_min == 0.15);
  static_assert(TrustConfig::margin_strike_boost == 0.25);
  static_assert(TrustConfig::margin_decay_halflife == 120.0);
  TrustManager trust;
  EXPECT_DOUBLE_EQ(trust.harvest_margin(7, 0.0), TrustConfig::margin_min);
  trust.record_safeguard(7, 0.0);
  EXPECT_NEAR(trust.harvest_margin(7, 0.0), 0.40, 1e-9);
  EXPECT_NEAR(trust.harvest_margin(7, 120.0), 0.275, 1e-9);  // one half-life
  EXPECT_NEAR(trust.harvest_margin(7, 3000.0), TrustConfig::margin_min, 1e-6);
}

TEST(TrustManager, MarginTracksErrorQuantile) {
  TrustManager trust;
  // Persistent ~40% under-prediction: clean samples (no strikes), but the
  // p95 error tracker must widen the harvest margin accordingly.
  for (int i = 0; i < 32; ++i)
    EXPECT_FALSE(trust.record_completion(7, 0.4, static_cast<double>(i)));
  EXPECT_NEAR(trust.harvest_margin(7, 1000.0), 0.4, 1e-9);
  EXPECT_EQ(trust.state(7, 1000.0), TrustState::kClosed);
}

// ---------------- OOM graceful degradation (engine) ----------------

/// Predictor that deliberately under-predicts memory, driving harvested
/// allocations below the function's OOM floor (test_report_and_oom idiom).
class MaliciousPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "malicious"; }
  void predict(Invocation& inv) override {
    inv.pred_demand = {inv.user_alloc.cpu, 1.0};
    inv.pred_duration = 1.0;
    inv.pred_size_related = true;
  }
  void observe(const core::Observation&) override {}
};

/// `user_mem_below_floor` gives every invocation a user memory allocation
/// below its OOM floor, so even the full-allocation re-dispatch OOMs.
sim::RunMetrics run_oom_scenario(bool redispatch,
                                 bool user_mem_below_floor = false) {
  core::LibraPolicyConfig cfg;
  cfg.safeguard_enabled = false;  // nothing rescues the container early
  cfg.min_mem_floor = 8.0;        // allow harvesting below the OOM floor
  auto policy = std::make_shared<core::LibraPolicy>(
      cfg, std::make_shared<MaliciousPredictor>(),
      std::make_shared<baselines::HashScheduler>());
  auto trace = workload::burst_trace(*catalog(), 6, 11);
  if (user_mem_below_floor)
    for (auto& inv : trace) inv.user_alloc.mem = inv.truth.min_mem / 2.0;
  auto engine_cfg = exp::single_node_config();
  engine_cfg.oom_redispatch = redispatch;
  return exp::run_experiment(engine_cfg, policy, std::move(trace));
}

TEST(OomGracefulDegradation, RedispatchRescuesAtFullUserAllocation) {
  auto m = run_oom_scenario(/*redispatch=*/true);
  EXPECT_GT(m.oom_events, 0);
  EXPECT_GT(m.oom_retries, 0);
  EXPECT_EQ(m.oom_terminal_losses, 0);
  EXPECT_EQ(m.lost_invocations, 0);
  EXPECT_EQ(m.incomplete, 0);
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed);
    // The re-dispatch runs oom_protected at the full user allocation, so one
    // rescue suffices — and the OOM budget is never the fault budget.
    EXPECT_LE(rec.oom_retries, 1);
    EXPECT_EQ(rec.fault_retries, 0);
  }
}

TEST(OomGracefulDegradation, ExhaustedBudgetIsTerminalLoss) {
  // Every re-dispatch OOMs again, so each invocation spends the whole
  // budget of max_oom_retries and is then lost.
  auto m = run_oom_scenario(/*redispatch=*/true,
                            /*user_mem_below_floor=*/true);
  EXPECT_GT(m.oom_events, 0);
  EXPECT_GT(m.oom_terminal_losses, 0);
  EXPECT_EQ(m.oom_terminal_losses, m.lost_invocations);  // no churn here
  EXPECT_EQ(m.oom_retries,
            sim::EngineConfig::max_oom_retries * m.oom_terminal_losses);
  EXPECT_EQ(m.incomplete, 0);
  long lost_records = 0;
  for (const auto& rec : m.invocations) {
    EXPECT_NE(rec.completed, rec.lost);  // mutually exclusive, exhaustive
    lost_records += rec.lost ? 1 : 0;
  }
  EXPECT_EQ(lost_records, m.lost_invocations);
}

TEST(OomGracefulDegradation, DefaultOffKeepsInPlaceRestartSemantics) {
  auto m = run_oom_scenario(/*redispatch=*/false);
  EXPECT_GT(m.oom_events, 0);
  EXPECT_EQ(m.oom_retries, 0);  // classic in-place restarts, no re-dispatch
  EXPECT_EQ(m.lost_invocations, 0);
  for (const auto& rec : m.invocations) EXPECT_TRUE(rec.completed);
}

// ---------------- Trust layer end-to-end ----------------

TEST(TrustEndToEnd, StormDemotesAndRunStaysAuditClean) {
  const std::vector<PredictionFault> storm = {
      {PredFaultKind::kBias, kAllFunctions, 5.0, kNever, 0.35}};
  auto policy = exp::make_faulty_libra(catalog(), exp::PlatformTuning{}, storm,
                                       /*with_trust=*/true);
  auto cfg = exp::multi_node_config();
  cfg.oom_redispatch = true;
  const long failures_before = util::audit::failures_observed();
  auto m = exp::run_experiment(cfg, policy,
                               workload::multi_trace(*catalog(), 60, 5));
  // The storm must be bad enough to demote at least one function, and the
  // quarantine invariant must hold through every auto-wired auditor sweep.
  EXPECT_GT(m.policy.trust_demotions, 0);
  EXPECT_FALSE(m.policy.harvest_margin_samples.empty());
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
  EXPECT_EQ(m.incomplete, 0);
  EXPECT_EQ(m.oom_terminal_losses, 0);
}

TEST(TrustEndToEnd, StormReplayIsBitIdentical) {
  const std::vector<PredictionFault> storm = {
      {PredFaultKind::kBias, kAllFunctions, 5.0, kNever, 0.35},
      {PredFaultKind::kNoise, kAllFunctions, 5.0, kNever, 0.4}};
  auto run_once = [&] {
    auto policy = exp::make_faulty_libra(catalog(), exp::PlatformTuning{},
                                         storm, /*with_trust=*/true);
    auto cfg = exp::multi_node_config();
    cfg.oom_redispatch = true;
    return exp::run_experiment(cfg, policy,
                               workload::multi_trace(*catalog(), 60, 5));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.p99_latency(), b.p99_latency());
  EXPECT_EQ(a.workload_completion_time(), b.workload_completion_time());
  EXPECT_EQ(a.oom_events, b.oom_events);
  EXPECT_EQ(a.oom_retries, b.oom_retries);
  EXPECT_EQ(a.policy.trust_demotions, b.policy.trust_demotions);
  EXPECT_EQ(a.policy.trust_promotions, b.policy.trust_promotions);
  EXPECT_EQ(a.policy.harvest_margin_samples, b.policy.harvest_margin_samples);
}

TEST(TrustEndToEnd, QuarantinedFunctionServedPaddedWithoutHarvest) {
  core::LibraPolicyConfig cfg;
  cfg.trust_enabled = true;
  auto predictor = std::make_shared<ConstPredictor>();
  core::LibraPolicy policy(cfg, predictor,
                           std::make_shared<baselines::HashScheduler>());
  auto* trust = policy.trust_manager_for_test();
  ASSERT_NE(trust, nullptr);
  trust->quarantine_for_audit_test(0, 0.0);

  auto inv = sample_invocation(0, 2, 5.0);  // arrival inside the cooldown
  policy.predict(inv);
  EXPECT_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
  EXPECT_EQ(inv.pred_demand.mem, inv.user_alloc.mem);
  EXPECT_FALSE(inv.profiling_probe);
  EXPECT_FALSE(inv.pred_size_related);
}

// ---------------- Quarantine invariant (auditor negative test) ----------

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

/// Minimal EngineApi for driving auditor sweeps without an engine run: one
/// quiescent node and a handful of live (unplaced) invocations.
class FakeApi final : public sim::EngineApi {
 public:
  FakeApi() { nodes_.emplace_back(0, Resources{32.0, 32768.0}, 1); }
  sim::SimTime now() const override { return 50.0; }
  const std::vector<sim::Node>& nodes() const override { return nodes_; }
  sim::Node& node(sim::NodeId id) override {
    return nodes_.at(static_cast<size_t>(id));
  }
  Invocation& invocation(sim::InvocationId id) override {
    return invocations_.at(id);
  }
  bool invocation_alive(sim::InvocationId id) const override {
    return invocations_.count(id) != 0;
  }
  const sim::ExecutionModel& exec_model() const override { return exec_; }
  void update_effective(sim::InvocationId, const Resources&) override {}
  void sync_accounting(sim::InvocationId) override {}
  Resources observed_usage(sim::InvocationId) const override { return {}; }
  Resources observed_peak(sim::InvocationId) const override { return {}; }
  // Nothing moves between checks: the quarantine counter alone must make
  // the auditor re-check the pools.
  const std::vector<sim::NodeId>& touched_nodes() const override {
    return none_touched_;
  }
  const std::vector<sim::InvocationId>& finalized_ids() const override {
    return none_finalized_;
  }

  void add_invocation(sim::InvocationId id, sim::FunctionId func) {
    Invocation inv;
    inv.id = id;
    inv.func = func;
    invocations_[id] = inv;
  }

 private:
  std::vector<sim::Node> nodes_;
  std::unordered_map<sim::InvocationId, Invocation> invocations_;
  sim::ExecutionModel exec_;
  std::vector<sim::NodeId> none_touched_;
  std::vector<sim::InvocationId> none_finalized_;
};

TEST(QuarantineInvariant, PoolEntryFromQuarantinedFunctionFires) {
  core::LibraPolicyConfig cfg;
  cfg.trust_enabled = true;
  auto policy = std::make_shared<core::LibraPolicy>(
      cfg, std::make_shared<ConstPredictor>(),
      std::make_shared<baselines::HashScheduler>());
  analysis::InvariantAuditor auditor;
  auditor.attach_policy(policy.get());

  FakeApi api;
  api.add_invocation(1, /*func=*/7);
  policy->pool(0).put(1, {1.0, 128.0}, 100.0, 0.0);

  {
    // Healthy: the source's function is trusted, the sweep stays silent.
    AuditCapture capture;
    auditor.on_engine_event(
        api, sim::EngineEvent{sim::EngineEventKind::kMonitor, 0});
    EXPECT_FALSE(capture.fired());
  }
  // Seed the violation: quarantine func 7 WITHOUT the policy-side pullback.
  policy->trust_manager_for_test()->quarantine_for_audit_test(7, 40.0);
  {
    AuditCapture capture;
    auditor.on_engine_event(
        api, sim::EngineEvent{sim::EngineEventKind::kMonitor, 0});
    ASSERT_TRUE(capture.fired());
    EXPECT_NE(capture.diags()[0].detail.find("QUARANTINED"),
              std::string::npos)
        << capture.diags()[0].detail;
  }
}

}  // namespace
}  // namespace libra
