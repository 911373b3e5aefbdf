// Scenario-matrix extension tests: spot drain notices (the policy pulls its
// harvests back), budget-free drain evictions (satellite of the retry-budget
// edge fix), per-tenant harvest quotas, and the hardened NaN/inf-aware
// validation of EngineConfig / FaultPlan / FaultProfile.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/harvest_pool.h"
#include "core/libra_policy.h"
#include "exp/platforms.h"
#include "sim/engine.h"
#include "sim/fault/fault_injector.h"
#include "sim/fault/fault_plan.h"
#include "util/audit.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace libra {
namespace {

using core::HarvestResourcePool;
using core::LibraPolicy;
using core::LibraPolicyConfig;
using sim::Engine;
using sim::EngineConfig;
using sim::Resources;
using sim::RunMetrics;
using sim::fault::kNever;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

std::shared_ptr<LibraPolicy> make_libra() {
  return LibraPolicy::with_coverage_scheduler(
      LibraPolicyConfig{},
      exp::make_libra_profiler(catalog(), exp::PlatformTuning{}));
}

/// Records the owning policy's node-0 pool entry count just before the drain
/// notice (at the end of the last engine event ahead of it) and at the moment
/// the notice has been fully processed (policy hook + migration done).
class DrainProbe final : public sim::EngineAuditHook {
 public:
  explicit DrainProbe(LibraPolicy* policy) : policy_(policy) {}
  void on_engine_event(sim::EngineApi&, const sim::EngineEvent& ev) override {
    const long entries = static_cast<long>(policy_->pool(0).entry_count());
    if (ev.kind == sim::EngineEventKind::kDrainNotice && ev.node == 0) {
      entries_before_notice_ = last_entries_;
      entries_at_notice_ = entries;
    }
    last_entries_ = entries;
  }
  long entries_before_notice() const { return entries_before_notice_; }
  long entries_at_notice() const { return entries_at_notice_; }

 private:
  LibraPolicy* policy_;
  long last_entries_ = 0;
  long entries_before_notice_ = -1;
  long entries_at_notice_ = -1;
};

EngineConfig spot_config(bool spot, double notice) {
  EngineConfig cfg;
  cfg.node_capacities = {Resources{32, 32768}, Resources{32, 32768}};
  cfg.spot_drain_notice = notice;
  cfg.fault_plan.outages.push_back({/*node=*/0, /*down_at=*/10.0, kNever, spot});
  return cfg;
}

RunMetrics run_spot(std::shared_ptr<LibraPolicy> policy, bool spot,
                    double notice, DrainProbe* probe = nullptr) {
  EngineConfig cfg = spot_config(spot, notice);
  if (probe != nullptr) cfg.audit_hook = probe;
  Engine engine(cfg, policy);
  workload::MaterializedSource source(
      workload::multi_trace(*catalog(), /*rpm=*/120, /*seed=*/5));
  return engine.run(source);
}

// ------------------------------------------------------- spot drain notices

TEST(SpotDrain, HonoredNoticePullsHarvestsBackAndEvictsBudgetFree) {
  auto policy = make_libra();
  DrainProbe probe(policy.get());
  const RunMetrics m = run_spot(policy, /*spot=*/true, /*notice=*/2.0, &probe);

  EXPECT_EQ(m.drain_notices, 1);
  EXPECT_GT(m.drain_evictions, 0);
  // The doomed node's pool was lending when the notice came, so the check
  // below is not vacuous...
  EXPECT_GT(probe.entries_before_notice(), 0);
  // ...and §Policy::on_drain_notice emptied it: by the end of the notice
  // event everything was preemptively released.
  EXPECT_EQ(probe.entries_at_notice(), 0);
  // Budget-free migration: nothing was charged to the crash-retry budget and
  // nothing was lost — the node emptied gracefully before the crash landed.
  EXPECT_EQ(m.fault_retries, 0);
  for (const auto& rec : m.invocations) EXPECT_EQ(rec.fault_retries, 0);
  EXPECT_EQ(m.lost_invocations, 0);
  EXPECT_DOUBLE_EQ(m.goodput(), 1.0);
}

TEST(SpotDrain, UnannouncedCrashChargesRetryBudget) {
  auto policy = make_libra();
  // Same outage, spot=false: no notice, the crash lands on a full node.
  const RunMetrics m = run_spot(policy, /*spot=*/false, /*notice=*/2.0);
  EXPECT_EQ(m.drain_notices, 0);
  EXPECT_EQ(m.drain_evictions, 0);
  // Invocations died with the node and were re-dispatched on the crash-retry
  // budget — the contrast that makes the drain path's fault_retries == 0
  // meaningful.
  EXPECT_GT(m.fault_retries, 0);
}

TEST(SpotDrain, ZeroNoticeBehavesLikePlainCrash) {
  auto policy = make_libra();
  const RunMetrics m = run_spot(policy, /*spot=*/true, /*notice=*/0.0);
  EXPECT_EQ(m.drain_notices, 0);
  EXPECT_EQ(m.drain_evictions, 0);
  EXPECT_GT(m.fault_retries, 0);
}

// --------------------------------------------------- per-tenant pool quotas

TEST(TenantQuota, GetClampsToQuotaRoomPerAxis) {
  HarvestResourcePool pool;
  pool.set_tenant_quota(0, {2.0, 1024.0});
  pool.put(/*source=*/1, {8.0, 8192.0}, /*est_completion=*/100.0, /*now=*/0.0);

  HarvestResourcePool::GetOptions opt;
  opt.tenant = 0;
  const auto grants = pool.get({4.0, 4096.0}, /*borrower=*/10, 1.0, opt);
  ASSERT_FALSE(grants.empty());
  const Resources out = pool.tenant_outstanding(0);
  EXPECT_DOUBLE_EQ(out.cpu, 2.0);
  EXPECT_DOUBLE_EQ(out.mem, 1024.0);

  // Quota exhausted: the next get for the same tenant takes nothing.
  EXPECT_TRUE(pool.get({4.0, 4096.0}, /*borrower=*/11, 2.0, opt).empty());

  // Tenants without a registered quota stay unrestricted.
  HarvestResourcePool::GetOptions other;
  other.tenant = 1;
  const auto unrestricted = pool.get({4.0, 4096.0}, /*borrower=*/12, 3.0, other);
  ASSERT_FALSE(unrestricted.empty());
  const Resources out1 = pool.tenant_outstanding(1);
  EXPECT_DOUBLE_EQ(out1.cpu, 4.0);
  EXPECT_DOUBLE_EQ(out1.mem, 4096.0);
}

TEST(TenantQuota, ReharvestAndPreemptAllFreeQuotaRoom) {
  HarvestResourcePool pool;
  pool.set_tenant_quota(0, {2.0, 1024.0});
  pool.put(1, {8.0, 8192.0}, 100.0, 0.0);
  HarvestResourcePool::GetOptions opt;
  opt.tenant = 0;
  ASSERT_FALSE(pool.get({4.0, 4096.0}, 10, 1.0, opt).empty());
  ASSERT_TRUE(pool.get({1.0, 512.0}, 11, 2.0, opt).empty());

  // Quota room is derived from live borrow records, so returning the grants
  // frees it automatically.
  pool.reharvest(/*borrower=*/10, 3.0);
  EXPECT_TRUE(pool.tenant_outstanding(0).is_zero());
  ASSERT_FALSE(pool.get({1.0, 512.0}, 12, 4.0, opt).empty());

  // preempt_all (node crash / drain pullback) revokes everything: quota
  // accounting must read zero afterwards, never negative or stale.
  const auto revocations = pool.preempt_all(5.0);
  ASSERT_FALSE(revocations.empty());
  EXPECT_TRUE(pool.tenant_outstanding(0).is_zero());
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
}

TEST(TenantQuota, AuditCatchesSeededViolation) {
  HarvestResourcePool pool;
  pool.set_tenant_quota(0, {2.0, 1024.0});
  pool.put(1, {1.0, 64.0}, 100.0, 0.0);

  long failures = 0;
  std::string detail;
  auto prev = util::audit::set_failure_handler(
      [&](const util::audit::Diagnostic& d) {
        ++failures;
        if (detail.empty()) detail = d.detail;
      });
  pool.corrupt_tenant_for_audit_test(/*source=*/1, /*borrower=*/2,
                                     /*tenant=*/0, {100.0, 100000.0});
  pool.audit_now(1.0);
  util::audit::set_failure_handler(prev);

  EXPECT_GT(failures, 0);
  EXPECT_NE(detail.find("tenant quota exceeded"), std::string::npos) << detail;
}

// ------------------------------------------------- NaN/inf-proof validation

TEST(ValidationHardening, EngineConfigRejectsNaNAndInf) {
  EngineConfig good;
  good.node_capacities = {Resources{8, 8192}};
  EXPECT_NO_THROW(good.validate());

  EngineConfig nan_notice = good;
  nan_notice.spot_drain_notice = kNaN;
  EXPECT_THROW(nan_notice.validate(), std::invalid_argument);

  EngineConfig inf_resolution = good;
  inf_resolution.series_resolution = kInf;
  EXPECT_THROW(inf_resolution.validate(), std::invalid_argument);

  EngineConfig nan_cap = good;
  nan_cap.node_capacities = {Resources{kNaN, 8192}};
  EXPECT_THROW(nan_cap.validate(), std::invalid_argument);

  EngineConfig neg_timeout = good;
  neg_timeout.placement_timeout = -0.1;
  EXPECT_THROW(neg_timeout.validate(), std::invalid_argument);
}

TEST(ValidationHardening, FaultPlanRejectsNaNTimesAndInvertedWindows) {
  sim::fault::FaultPlan plan;
  plan.outages.push_back({0, kNaN, 2.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = {};
  plan.outages.push_back({0, 5.0, 4.0});  // up before down
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = {};
  plan.ping_blackouts.push_back({0, kNaN, 10.0});
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = {};
  plan.ping_blackouts.push_back({0, 10.0, kNaN});  // NaN `until` (inverted)
  EXPECT_THROW(plan.validate(2), std::invalid_argument);

  plan = {};
  plan.monitor_blackouts.push_back({0, 10.0, 10.0});  // empty window
  EXPECT_THROW(plan.validate(2), std::invalid_argument);
}

TEST(ValidationHardening, FaultPlanBoundsPredictionFaultTargets) {
  sim::fault::FaultPlan plan;
  sim::fault::PredictionFault p;
  p.func = 7;
  p.from = 0.0;
  p.until = 10.0;
  plan.prediction_faults.push_back(p);
  // Without a catalog bound any non-negative func passes...
  EXPECT_NO_THROW(plan.validate(2));
  // ...with one, out-of-range targets are rejected.
  EXPECT_THROW(plan.validate(2, /*num_functions=*/4), std::invalid_argument);
  EXPECT_NO_THROW(plan.validate(2, /*num_functions=*/8));

  plan.prediction_faults[0].severity = kNaN;
  EXPECT_THROW(plan.validate(2, 8), std::invalid_argument);

  plan.prediction_faults[0].severity = 2.0;
  plan.prediction_faults[0].kind = sim::fault::PredFaultKind::kDrift;
  plan.prediction_faults[0].until = kNever;  // drift needs a finite end
  EXPECT_THROW(plan.validate(2, 8), std::invalid_argument);
}

TEST(ValidationHardening, FaultProfileRejectsNaNProbabilities) {
  sim::fault::FaultProfile profile;
  profile.ping_drop_prob = kNaN;
  EXPECT_THROW(profile.validate(), std::invalid_argument);

  profile = {};
  profile.node_mtbf = kInf;
  EXPECT_THROW(profile.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace libra
