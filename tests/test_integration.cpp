// Cross-module integration tests asserting the *shapes* the paper's
// evaluation reports (DESIGN.md §6): who wins, in which direction, with
// safety preserved. These are the tests that would catch a regression that
// silently breaks the reproduction.
#include <gtest/gtest.h>

#include <memory>

#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

sim::RunMetrics run_platform(exp::PlatformKind kind, uint64_t seed) {
  auto trace = workload::single_node_trace(*catalog(), seed);
  auto policy = exp::make_platform(kind, catalog());
  return exp::run_experiment(exp::single_node_config(), policy,
                             std::move(trace));
}

TEST(Shape, LibraBeatsDefaultOnTailLatency) {
  const auto def = run_platform(exp::PlatformKind::kDefault, 7);
  const auto lib = run_platform(exp::PlatformKind::kLibra, 7);
  EXPECT_LT(lib.p99_latency(), def.p99_latency());
  auto dl = def.response_latencies();
  auto ll = lib.response_latencies();
  EXPECT_LT(util::percentile(ll, 50), util::percentile(dl, 50));
}

TEST(Shape, LibraBeatsFreyrEverywhere) {
  const auto freyr = run_platform(exp::PlatformKind::kFreyr, 7);
  const auto lib = run_platform(exp::PlatformKind::kLibra, 7);
  EXPECT_LT(lib.p99_latency(), freyr.p99_latency());
  EXPECT_LT(lib.workload_completion_time(), freyr.workload_completion_time());
  EXPECT_GT(lib.avg_cpu_utilization(), freyr.avg_cpu_utilization());
}

TEST(Shape, SafetyOrderingAcrossAblations) {
  // Worst-case slowdown: Libra ~0 < NP < NS < NSP (§8.3.2 direction).
  auto worst = [](const sim::RunMetrics& m) {
    double w = 0;
    for (const auto& r : m.invocations) w = std::min(w, r.speedup);
    return -w;
  };
  const double libra = worst(run_platform(exp::PlatformKind::kLibra, 7));
  const double ns = worst(run_platform(exp::PlatformKind::kLibraNS, 7));
  const double nsp = worst(run_platform(exp::PlatformKind::kLibraNSP, 7));
  EXPECT_LT(libra, 0.05);
  EXPECT_GT(ns, libra);
  EXPECT_GT(nsp, 0.5);
}

TEST(Shape, LibraCompletesWorkloadFasterThanDefault) {
  const auto def = run_platform(exp::PlatformKind::kDefault, 7);
  const auto lib = run_platform(exp::PlatformKind::kLibra, 7);
  EXPECT_LT(lib.workload_completion_time(), def.workload_completion_time());
  EXPECT_GE(lib.avg_cpu_utilization(), def.avg_cpu_utilization());
}

TEST(Shape, OnlyHarvestingPlatformsReassignResources) {
  const auto def = run_platform(exp::PlatformKind::kDefault, 7);
  EXPECT_EQ(def.policy.harvest_puts, 0);
  const auto lib = run_platform(exp::PlatformKind::kLibra, 7);
  EXPECT_GT(lib.policy.harvest_puts, 0);
}

TEST(Shape, InputSizeSensitivityOrdering) {
  // §8.7: Libra gains most on size-related workloads, least on unrelated.
  auto gain = [](const sim::FunctionCatalog& cat_ref, uint64_t seed) {
    auto cat = std::make_shared<const sim::FunctionCatalog>(cat_ref);
    auto trace = workload::single_node_trace(*cat, seed);
    auto def = exp::run_experiment(exp::single_node_config(),
                                   exp::make_platform(exp::PlatformKind::kDefault, cat),
                                   trace);
    auto lib = exp::run_experiment(exp::single_node_config(),
                                   exp::make_platform(exp::PlatformKind::kLibra, cat),
                                   trace);
    return (def.p99_latency() - lib.p99_latency()) /
           std::max(1e-9, def.p99_latency());
  };
  const double related = gain(workload::sebs_catalog_size_related(), 7);
  const double unrelated = gain(workload::sebs_catalog_size_unrelated(), 7);
  EXPECT_GT(related, unrelated - 0.02);
  EXPECT_GT(related, 0.0);
}

TEST(Shape, MultiNodeCoverageSchedulerWinsOnIdleTime) {
  // §8.4 Fig. 10(b): the coverage scheduler makes the best use of harvested
  // resources (lowest idle resource-time).
  auto trace = workload::multi_trace(*catalog(), 180, 5);
  auto run = [&](exp::SchedulerKind kind) {
    auto policy = exp::make_scheduler_platform(kind, catalog());
    return exp::run_experiment(exp::multi_node_config(), policy, trace);
  };
  const auto cov = run(exp::SchedulerKind::kCoverage);
  const auto rr = run(exp::SchedulerKind::kRoundRobin);
  EXPECT_EQ(cov.incomplete, 0);
  EXPECT_EQ(rr.incomplete, 0);
  EXPECT_LE(cov.policy.pool_idle_cpu_core_seconds,
            rr.policy.pool_idle_cpu_core_seconds * 1.25);
}

TEST(Shape, StrongScalingMoreNodesFasterCompletion) {
  // §8.5 Fig. 12(a): fixed 400 invocations, growing cluster.
  auto trace = workload::burst_trace(*catalog(), 400, 5);
  double prev = 1e18;
  for (int nodes : {10, 30, 50}) {
    auto policy = exp::make_scheduler_platform(exp::SchedulerKind::kCoverage,
                                               catalog());
    auto m = exp::run_experiment(exp::jetstream_config(nodes, 2), policy,
                                 trace);
    EXPECT_EQ(m.incomplete, 0);
    const double t = m.workload_completion_time();
    EXPECT_LT(t, prev * 1.05);
    prev = t;
  }
}

TEST(Shape, MoreSchedulerShardsReduceSchedulingDelay) {
  // §8.5: decentralized sharding exists to keep decisions off the critical
  // path; with a serialized decision time (EngineConfig::
  // sched_decision_delay, 0.5 ms), 4 shards must beat 1 on queueing.
  auto trace = workload::burst_trace(*catalog(), 500, 9);
  auto run_with_shards = [&](int shards) {
    const auto cfg = exp::jetstream_config(20, shards);
    auto policy = exp::make_scheduler_platform(exp::SchedulerKind::kCoverage,
                                               catalog());
    auto m = exp::run_experiment(cfg, policy, trace);
    double total_wait = 0;
    for (const auto& r : m.invocations) total_wait += r.stage_scheduler;
    return total_wait / static_cast<double>(m.invocations.size());
  };
  const double one = run_with_shards(1);
  const double four = run_with_shards(4);
  EXPECT_LT(four, one);
}

TEST(Shape, SafeguardedRatioFallsWithThreshold) {
  // §8.8 Fig. 14(a): raising the threshold monotonically (allowing noise)
  // reduces the fraction of safeguarded invocations.
  auto ratio = [&](double threshold) {
    exp::PlatformTuning tuning;
    tuning.safeguard_threshold = threshold;
    auto policy =
        exp::make_platform(exp::PlatformKind::kLibra, catalog(), tuning);
    auto m = exp::run_experiment(
        exp::single_node_config(), policy,
        workload::single_node_trace(*catalog(), 7));
    return m.safeguarded_fraction();
  };
  const double low = ratio(0.05);
  const double mid = ratio(0.8);
  const double high = ratio(1.0);
  EXPECT_GT(low, mid);
  EXPECT_GE(mid, high - 0.02);
}

TEST(Shape, SchedulerOverheadStaysSubMillisecond) {
  // §8.5 Fig. 12(c): real decision latency < 1 ms on a 50-node cluster.
  auto cfg = exp::jetstream_config(50, 4);
  cfg.measure_real_sched_overhead = true;
  auto policy =
      exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog());
  auto m = exp::run_experiment(cfg, policy,
                               workload::burst_trace(*catalog(), 400, 3));
  ASSERT_FALSE(m.sched_overhead_seconds.empty());
  EXPECT_LT(util::mean(m.sched_overhead_seconds), 1e-3);
}

}  // namespace
}  // namespace libra
