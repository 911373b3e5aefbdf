#include <gtest/gtest.h>

#include <memory>

#include "baselines/freyr.h"
#include "baselines/schedulers.h"
#include "core/libra_policy.h"
#include "core/profiler.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra::core {
namespace {

using sim::InvOutcome;
using sim::Resources;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

sim::RunMetrics run_libra(uint64_t seed, LibraPolicyConfig cfg) {
  auto trace = workload::single_node_trace(*catalog(), seed);
  ProfilerConfig pcfg;
  auto profiler = std::make_shared<Profiler>(pcfg, catalog());
  profiler->prewarm(*catalog(), 1234, 30);
  auto policy = LibraPolicy::with_coverage_scheduler(cfg, profiler);
  return exp::run_experiment(exp::single_node_config(), policy,
                             workload::single_node_trace(*catalog(), seed));
}

TEST(LibraPolicy, HarvestsOverProvisionedInvocations) {
  auto m = run_libra(7, LibraPolicyConfig{});
  EXPECT_GT(m.policy.harvest_puts, 20);
  size_t harvested = 0;
  for (const auto& rec : m.invocations)
    if (rec.outcome == InvOutcome::kHarvested) ++harvested;
  EXPECT_GT(harvested, 20u);
}

TEST(LibraPolicy, AcceleratesUnderProvisionedInvocations) {
  auto m = run_libra(7, LibraPolicyConfig{});
  EXPECT_GT(m.policy.borrow_gets, 10);
  double best = 0;
  for (const auto& rec : m.invocations) best = std::max(best, rec.speedup);
  EXPECT_GT(best, 0.2);
}

TEST(LibraPolicy, SafetyWorstSlowdownIsSmall) {
  // §8.3: Libra degrades at most ~2% with the safeguard active.
  auto m = run_libra(7, LibraPolicyConfig{});
  double worst = 0;
  for (const auto& rec : m.invocations)
    worst = std::min(worst, rec.speedup);
  EXPECT_GT(worst, -0.05);
}

TEST(LibraPolicy, RawPredictionStashDrainsWithTheLiveSet) {
  // The trust layer stashes the raw model prediction per invocation so
  // on_complete can score the model. Before §5l the stash leaked on loss
  // paths (evictions, crashes) that never reach on_complete; on_finalized
  // now drops the entry for every terminal record, so after a full run the
  // bookkeeping must be empty — the invariant auditor asserts the same
  // boundedness (stash ⊆ live set) after every sampled engine event.
  LibraPolicyConfig cfg;
  cfg.trust_enabled = true;
  ProfilerConfig pcfg;
  auto profiler = std::make_shared<Profiler>(pcfg, catalog());
  profiler->prewarm(*catalog(), 1234, 30);
  auto policy = LibraPolicy::with_coverage_scheduler(cfg, profiler);
  const auto m =
      exp::run_experiment(exp::single_node_config(), policy,
                          workload::single_node_trace(*catalog(), 7));
  EXPECT_GT(m.invocations.size(), 0u);
  size_t stashed = 0;
  policy->for_each_raw_pred_id([&stashed](sim::InvocationId) { ++stashed; });
  EXPECT_EQ(stashed, 0u)
      << stashed
      << " raw predictions still stashed after every invocation finalized";
}

TEST(LibraPolicy, NoSafeguardAllowsRealDegradation) {
  LibraPolicyConfig cfg;
  cfg.safeguard_enabled = false;
  auto m = run_libra(7, cfg);
  EXPECT_EQ(m.policy.safeguard_triggers, 0);
  double worst = 0;
  for (const auto& rec : m.invocations)
    worst = std::min(worst, rec.speedup);
  EXPECT_LT(worst, -0.1);  // mispredictions now hurt for real
}

TEST(LibraPolicy, SafeguardTriggersAndMarksInvocations) {
  auto m = run_libra(7, LibraPolicyConfig{});
  EXPECT_GT(m.policy.safeguard_triggers, 0);
  EXPECT_GT(m.safeguarded_fraction(), 0.0);
  EXPECT_LT(m.safeguarded_fraction(), 0.5);
}

TEST(LibraPolicy, ReassignedResourceTimeBalances) {
  // Fig. 8 x-axis integrity: the total positive (borrowed) reassigned
  // core-seconds can never exceed the total harvested core-seconds.
  auto m = run_libra(7, LibraPolicyConfig{});
  double borrowed = 0, harvested = 0;
  for (const auto& rec : m.invocations) {
    if (rec.reassigned_core_seconds > 0)
      borrowed += rec.reassigned_core_seconds;
    else
      harvested -= rec.reassigned_core_seconds;
  }
  EXPECT_GT(borrowed, 0.0);
  EXPECT_GT(harvested, 0.0);
  EXPECT_LE(borrowed, harvested + 1e-6);
}

TEST(LibraPolicy, PoolIdleAccountingPositive) {
  auto m = run_libra(7, LibraPolicyConfig{});
  EXPECT_GT(m.policy.pool_idle_cpu_core_seconds, 0.0);
  EXPECT_GT(m.policy.pool_idle_mem_mb_seconds, 0.0);
}

TEST(LibraPolicy, RevocationsAndReharvestsOccur) {
  // Timeliness in action: some sources finish while their resources are
  // borrowed (revocations) and some borrowers finish early (re-harvests).
  auto m = run_libra(7, LibraPolicyConfig{});
  EXPECT_GT(m.policy.pool_revocations, 0);
}

TEST(LibraPolicy, BackfillCanBeDisabled) {
  LibraPolicyConfig with;
  LibraPolicyConfig without;
  without.runtime_backfill = false;
  auto m_with = run_libra(7, with);
  auto m_without = run_libra(7, without);
  EXPECT_GT(m_with.policy.borrow_gets, m_without.policy.borrow_gets);
}

TEST(LibraPolicy, RejectsNullDependencies) {
  EXPECT_THROW(LibraPolicy(LibraPolicyConfig{}, nullptr,
                           std::make_shared<baselines::HashScheduler>()),
               std::invalid_argument);
  auto profiler = std::make_shared<Profiler>(ProfilerConfig{}, catalog());
  EXPECT_THROW(LibraPolicy(LibraPolicyConfig{}, profiler, nullptr),
               std::invalid_argument);
}

TEST(FreyrPolicy, DegradesWorseThanLibra) {
  auto trace = workload::single_node_trace(*catalog(), 7);
  auto freyr = exp::make_platform(exp::PlatformKind::kFreyr, catalog());
  auto m_freyr =
      exp::run_experiment(exp::single_node_config(), freyr, trace);
  auto m_libra = run_libra(7, LibraPolicyConfig{});
  double worst_freyr = 0, worst_libra = 0;
  for (const auto& r : m_freyr.invocations)
    worst_freyr = std::min(worst_freyr, r.speedup);
  for (const auto& r : m_libra.invocations)
    worst_libra = std::min(worst_libra, r.speedup);
  EXPECT_LT(worst_freyr, worst_libra);
  EXPECT_GT(m_libra.p99_latency(), 0.0);
  EXPECT_LT(m_libra.p99_latency(), m_freyr.p99_latency());
}

TEST(FreyrPolicy, ConfigEncodesTheThreeDifferences) {
  const auto cfg = baselines::freyr_config();
  EXPECT_FALSE(cfg.timeliness_aware_pool);
  EXPECT_FALSE(cfg.mem_expiry_filter);
  EXPECT_FALSE(cfg.preemptive_release_on_safeguard);
  EXPECT_FALSE(cfg.runtime_backfill);
}

TEST(Platforms, NamesAreStable) {
  EXPECT_EQ(exp::platform_name(exp::PlatformKind::kLibra), "Libra");
  EXPECT_EQ(exp::platform_name(exp::PlatformKind::kLibraNSP), "Libra-NSP");
  EXPECT_EQ(exp::scheduler_name(exp::SchedulerKind::kMws), "MWS");
}

}  // namespace
}  // namespace libra::core
