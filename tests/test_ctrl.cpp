// Multi-controller control plane tests (src/sim/ctrl, DESIGN.md §5k):
// config validation, transparent-mode equivalence, gossip staleness windows,
// bounded divergence under dropped gossip, cross-controller steal determinism
// and order, and the stale-commit conflict path (reject-and-requeue never
// loses work).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "core/libra_policy.h"
#include "core/profiler.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "util/audit.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace libra {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::RunMetrics;
using sim::ctrl::ControlPlaneConfig;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

std::shared_ptr<sim::Policy> make_libra() {
  return exp::make_platform(exp::PlatformKind::kLibra, catalog());
}

// Runs the golden "libra" scenario shape with the given control-plane knobs.
RunMetrics run_libra(EngineConfig cfg, int rpm = 120, int seed = 5) {
  return exp::run_experiment(cfg, make_libra(),
                             workload::multi_trace(*catalog(), rpm, seed));
}

// Simultaneous-arrival burst: controller queues go deep, so stealing and
// commit-time conflicts are guaranteed to trigger.
RunMetrics run_libra_burst(EngineConfig cfg, size_t n = 160, int seed = 9) {
  return exp::run_experiment(cfg, make_libra(),
                             workload::burst_trace(*catalog(), n, seed));
}

// ---------------------------------------------------------------- validation

TEST(CtrlConfig, RejectsBadKnobs) {
  ControlPlaneConfig c;
  c.num_controllers = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = ControlPlaneConfig{};
  c.gossip_period = -1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = ControlPlaneConfig{};
  c.gossip_period = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = ControlPlaneConfig{};
  c.gossip_fanout = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = ControlPlaneConfig{};
  c.steal_watermark = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  EXPECT_NO_THROW(ControlPlaneConfig{}.validate());
}

TEST(CtrlConfig, EngineConfigValidateCoversControlPlane) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = -3;
  EXPECT_THROW(Engine(cfg, make_libra()), std::invalid_argument);
}

// ----------------------------------------------------------- transparent mode

TEST(CtrlTransparent, DefaultConfigKeepsLegacySingleControllerPath) {
  auto m = run_libra(exp::multi_node_config());
  ASSERT_EQ(m.control.controllers.size(), 1u);
  const auto& c0 = m.control.controllers[0];
  // Transparent mode never materializes caches, so no gossip traffic is ever
  // counted — the scheduler reads the policy's own snapshots directly.
  EXPECT_EQ(c0.gossip_updates, 0);
  EXPECT_EQ(c0.staleness_samples, 0);
  EXPECT_EQ(m.control.total_stolen, 0);
  // Attribution still works: every admission and decision lands on the one
  // controller.
  EXPECT_GT(c0.admitted, 0);
  EXPECT_EQ(c0.decisions, m.sched_decisions);
}

TEST(CtrlTransparent, PassThroughCachesAreDigestIdenticalToLegacy) {
  // 3 controllers, pass-through gossip, full fan-out: caches shadow the
  // policy snapshots exactly, so the replay digest must not move.
  EngineConfig base = exp::multi_node_config();
  EngineConfig sharded = base;
  sharded.control.num_controllers = 3;
  EXPECT_EQ(exp::run_metrics_digest(run_libra(base)),
            exp::run_metrics_digest(run_libra(sharded)));
}

// ------------------------------------------------------------------- gossip

TEST(CtrlGossip, PeriodicRefreshHonorsStalenessWindow) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 2;
  cfg.control.gossip_period = 2.0;
  auto m = run_libra(cfg);
  ASSERT_EQ(m.control.controllers.size(), 2u);
  EXPECT_GT(m.control.total_gossip_updates(), 0);
  long samples = 0;
  for (const auto& c : m.control.controllers) {
    samples += c.staleness_samples;
    // Every decision's view age is bounded by the refresh period plus the
    // ping interval the underlying snapshot lags by (healthy, ping-delivering
    // nodes throughout this run — no faults are injected).
    EXPECT_LE(c.staleness_max,
              cfg.control.gossip_period + cfg.health_ping_interval + 1e-9)
        << "cached view older than the gossip staleness window";
    EXPECT_GE(c.staleness_max, 0.0);
  }
  EXPECT_GT(samples, 0);
  EXPECT_EQ(m.incomplete, 0);
}

TEST(CtrlGossip, PeriodicViewsAreStalerThanPassThrough) {
  EngineConfig fresh = exp::multi_node_config();
  fresh.control.num_controllers = 2;
  auto mf = run_libra(fresh);

  EngineConfig stale = fresh;
  stale.control.gossip_period = 2.0;
  auto ms = run_libra(stale);

  auto mean_staleness = [](const RunMetrics& m) {
    double sum = 0.0;
    long n = 0;
    for (const auto& c : m.control.controllers) {
      sum += c.staleness_sum;
      n += c.staleness_samples;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  // Pass-through caches refresh on every delivered ping; periodic ones only
  // every 2 s. The decision-time view age must reflect that ordering.
  EXPECT_GT(mean_staleness(ms), mean_staleness(mf));
}

TEST(CtrlGossip, DroppedGossipDivergenceIsBoundedAndHarmless) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 3;
  cfg.fault_profile.gossip_drop_prob = 0.5;
  auto m = run_libra(cfg);
  ASSERT_EQ(m.control.controllers.size(), 3u);
  // Half the updates vanish, the rest land: caches go stale but never stop
  // refreshing entirely, and a stale view can only cause deterministic
  // reject-and-requeue — the run still retires every invocation.
  EXPECT_GT(m.control.total_gossip_drops(), 0);
  EXPECT_GT(m.control.total_gossip_updates(), 0);
  EXPECT_EQ(m.incomplete, 0);
  for (const auto& c : m.control.controllers) {
    // No delays were injected, so nothing can arrive out of order.
    EXPECT_EQ(c.gossip_discards, 0);
  }
}

TEST(CtrlGossip, DroppedGossipIsSeedReproducible) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 2;
  cfg.fault_profile.gossip_drop_prob = 0.3;
  cfg.fault_profile.gossip_delay_prob = 0.2;
  auto a = run_libra(cfg);
  auto b = run_libra(cfg);
  EXPECT_EQ(exp::run_metrics_digest(a), exp::run_metrics_digest(b));
  ASSERT_EQ(a.control.controllers.size(), b.control.controllers.size());
  for (size_t i = 0; i < a.control.controllers.size(); ++i) {
    EXPECT_EQ(a.control.controllers[i].gossip_drops,
              b.control.controllers[i].gossip_drops);
    EXPECT_EQ(a.control.controllers[i].gossip_delays,
              b.control.controllers[i].gossip_delays);
    EXPECT_EQ(a.control.controllers[i].gossip_updates,
              b.control.controllers[i].gossip_updates);
  }
}

// ------------------------------------------------------------------ stealing

TEST(CtrlSteal, AggressiveStealingStaysDigestIdentical) {
  // Watermark 0 steals eagerly on every enqueue; re-stamping the owning
  // controller must never leak into engine behaviour.
  EngineConfig base = exp::multi_node_config();
  EngineConfig stealy = base;
  stealy.control.num_controllers = 4;
  stealy.control.steal_watermark = 0;
  auto mb = run_libra_burst(base);
  auto ms = run_libra_burst(stealy);
  EXPECT_EQ(exp::run_metrics_digest(mb), exp::run_metrics_digest(ms));
  EXPECT_GT(ms.control.total_stolen, 0);
  EXPECT_GT(ms.control.steal_batches, 0);
  // Steal accounting is conservative: ins == outs, and every decision is
  // attributed to exactly one controller.
  long ins = 0, outs = 0, decisions = 0;
  for (const auto& c : ms.control.controllers) {
    ins += c.steals_in;
    outs += c.steals_out;
    decisions += c.decisions;
  }
  EXPECT_EQ(ins, outs);
  EXPECT_EQ(ins, ms.control.total_stolen);
  EXPECT_EQ(decisions, ms.sched_decisions);
}

TEST(CtrlSteal, AttributionMovesToTheThief) {
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 4;
  cfg.control.steal_watermark = 0;
  auto m = run_libra_burst(cfg);
  // With eager stealing some controller must have executed work it did not
  // admit (or vice versa) — attribution follows the steal.
  bool any_moved = false;
  for (const auto& c : m.control.controllers)
    if (c.steals_in > 0 || c.steals_out > 0) any_moved = true;
  EXPECT_TRUE(any_moved);
}

TEST(CtrlSteal, StealAndQueueCountsArePinned) {
  // Eager stealing over periodic gossip. A steal takes the victim's first
  // invocations in the shard queues, read position-major (DESIGN.md §5k,
  // "Steal order"); that rule and the batch of
  // ControlPlaneConfig::steal_batch (4) decide every count below.
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 4;
  cfg.control.steal_watermark = 0;
  cfg.control.gossip_period = 1.0;
  const RunMetrics m = run_libra_burst(cfg);
  EXPECT_EQ(exp::run_metrics_digest(m), 0x85243c1d4be5d5a6ULL);
  EXPECT_EQ(m.control.steal_batches, 8);
  EXPECT_EQ(m.control.total_stolen, 11);
  struct Counts {
    long admitted, decisions, conflicts, steals_in, steals_out, peak_depth;
    bool operator==(const Counts&) const = default;
  };
  const std::vector<Counts> want = {{48, 2050, 0, 1, 5, 48},
                                    {48, 1960, 0, 4, 2, 48},
                                    {32, 1148, 0, 2, 3, 32},
                                    {32, 1359, 0, 4, 1, 32}};
  ASSERT_EQ(m.control.controllers.size(), want.size());
  for (size_t c = 0; c < want.size(); ++c) {
    const auto& got = m.control.controllers[c];
    EXPECT_EQ((Counts{got.admitted, got.decisions, got.conflicts,
                      got.steals_in, got.steals_out, got.peak_queue_depth}),
              want[c])
        << "controller " << c;
  }
}

TEST(CtrlSteal, StealsOnAChurningClusterArePinned) {
  // A burst on a churning cluster with recycling, and two controllers that
  // steal on every enqueue: parked invocations re-enqueue and fault
  // requeues land behind them, so steals read shard queues that retries
  // keep reordering. Default reads no controller cache, so the digest must
  // not move with the steals; the counts pin the steal order.
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 2;
  cfg.control.steal_watermark = 0;
  cfg.recycle_records = true;
  cfg.fault_profile.seed = 102;
  cfg.fault_profile.node_mtbf = 30.0;
  cfg.fault_profile.node_mttr = 5.0;
  const RunMetrics m = exp::run_experiment(
      cfg, exp::make_platform(exp::PlatformKind::kDefault, catalog()),
      workload::burst_trace(*catalog(), 600, 2));
  EXPECT_EQ(exp::run_metrics_digest(m), 0x81f76faa7c68a2f8ULL);
  EXPECT_EQ(m.control.total_stolen, 75);
  EXPECT_EQ(m.control.steal_batches, 46);
}

// ------------------------------------------------------- stale-view conflicts

TEST(CtrlConflict, StaleCommitRequeuesAndNeverLosesWork) {
  // A spot-draining node is the guaranteed conflict source: the sticky-hash
  // scheduler keeps choosing it (shard feasibility does not see drains), and
  // commit-time validation rejects each choice until the drain window ends.
  analysis::InvariantAuditor auditor;
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 2;
  cfg.fault_plan.outages.push_back(
      {/*node=*/0, /*down_at=*/15.0, /*up_at=*/30.0, /*spot=*/true});
  cfg.spot_drain_notice = 12.0;  // node 0 drains from t=3 to t=15
  cfg.audit_hook = &auditor;
  auto policy = make_libra();
  auditor.attach_policy(
      dynamic_cast<core::LibraPolicy*>(policy.get()));
  const long failures_before = util::audit::failures_observed();
  Engine engine(cfg, policy);
  workload::MaterializedSource source(
      workload::multi_trace(*catalog(), /*rpm=*/120, /*seed=*/5));
  auto m = engine.run(source);

  // Conflicts happened and were resolved by reject-and-requeue: nothing was
  // silently over-committed (auditor + conservation ledger stayed clean) and
  // no invocation fell through the cracks.
  EXPECT_GT(m.control.total_conflicts(), 0);
  EXPECT_EQ(util::audit::failures_observed(), failures_before);
  EXPECT_EQ(m.incomplete, 0);
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed || rec.lost) << "invocation " << rec.id;
    EXPECT_FALSE(rec.completed && rec.lost);
  }
}

TEST(CtrlConflict, DeadNodeConflictsResolveUnderChurn) {
  // Scripted crash: schedulers keep picking node 0 from stale health/pool
  // views for up to a ping interval; each such pick is a per-controller
  // conflict AND a stale_snapshot_decision, resolved by requeue.
  EngineConfig cfg = exp::multi_node_config();
  cfg.control.num_controllers = 2;
  cfg.fault_plan.outages.push_back({/*node=*/0, /*down_at=*/5.0,
                                    /*up_at=*/20.0});
  auto m = run_libra(cfg);
  EXPECT_EQ(m.node_crashes, 1);
  EXPECT_EQ(m.incomplete, 0);
  // Every stale-snapshot decision the engine counted was attributed to an
  // owning controller as a conflict (parks for other reasons may add more).
  EXPECT_GE(m.control.total_conflicts(), m.stale_snapshot_decisions);
  // Work is conserved: completed + lost == admitted.
  long done = 0;
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed || rec.lost);
    if (rec.completed || rec.lost) ++done;
  }
  EXPECT_EQ(done, static_cast<long>(m.invocations.size()));
}

}  // namespace
}  // namespace libra
