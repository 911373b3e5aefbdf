#include <gtest/gtest.h>

#include <memory>

#include "baselines/default_policy.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace libra::sim {
namespace {

std::shared_ptr<const FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

RunMetrics run_default(std::vector<Invocation> trace, EngineConfig cfg) {
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(std::move(trace));
  return engine.run(source);
}

TEST(Engine, CompletesEveryInvocation) {
  auto trace = workload::single_node_trace(*catalog(), 3);
  auto m = run_default(trace, exp::single_node_config());
  EXPECT_EQ(m.invocations.size(), trace.size());
  EXPECT_EQ(m.incomplete, 0);
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed);
    EXPECT_GT(rec.response_latency, 0.0);
    EXPECT_GE(rec.finish, rec.arrival);
  }
}

TEST(Engine, DefaultPlatformHasZeroSpeedups) {
  auto trace = workload::single_node_trace(*catalog(), 3);
  auto m = run_default(std::move(trace), exp::single_node_config());
  for (const auto& rec : m.invocations) {
    EXPECT_NEAR(rec.speedup, 0.0, 1e-9);
    EXPECT_EQ(rec.outcome, InvOutcome::kDefault);
    EXPECT_DOUBLE_EQ(rec.reassigned_core_seconds, 0.0);
  }
}

TEST(Engine, ExecutionTimeMatchesModelWithoutContention) {
  // One small invocation on a huge empty node: latency = frontend + profiler
  // + decision + pool + cold start + exec_time(user_alloc).
  auto trace = workload::burst_trace(*catalog(), 1, 5);
  EngineConfig cfg = exp::single_node_config();
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  ExecutionModel model;
  const double expected_exec =
      model.exec_time(trace[0].user_alloc, trace[0].truth);
  workload::MaterializedSource source(trace);
  auto m = engine.run(source);
  ASSERT_EQ(m.invocations.size(), 1u);
  const auto& rec = m.invocations[0];
  EXPECT_NEAR(rec.stage_exec, expected_exec, 1e-6);
  EXPECT_TRUE(rec.cold_start);
  const double overheads = cfg.frontend_delay + cfg.profiler_delay +
                           cfg.pool_op_delay +
                           cfg.container.cold_start_delay;
  EXPECT_NEAR(rec.response_latency, overheads + expected_exec, 1e-3);
}

TEST(Engine, UsedNeverExceedsAllocatedOrCapacity) {
  auto trace = workload::single_node_trace(*catalog(), 9);
  auto m = run_default(std::move(trace), exp::single_node_config());
  const auto& used = m.cpu_used;
  for (size_t i = 0; i < used.times().size(); ++i) {
    EXPECT_LE(used.values()[i], m.total_capacity.cpu + 1e-6);
  }
  // Average used <= average allocated (harvesting never mints resources).
  const double avg_used = m.cpu_used.average(m.first_arrival, m.makespan_end);
  const double avg_alloc =
      m.cpu_allocated.average(m.first_arrival, m.makespan_end);
  EXPECT_LE(avg_used, avg_alloc + 1e-6);
}

TEST(Engine, WarmStartsHappenWithHashAffinity) {
  auto trace = workload::single_node_trace(*catalog(), 13);
  auto m = run_default(std::move(trace), exp::single_node_config());
  EXPECT_GT(m.warm_starts, 0);
  EXPECT_GT(m.cold_starts, 0);
  EXPECT_EQ(m.warm_starts + m.cold_starts,
            static_cast<long>(m.invocations.size()));
}

TEST(Engine, StageLatenciesSumToResponseLatency) {
  auto trace = workload::single_node_trace(*catalog(), 17);
  auto m = run_default(std::move(trace), exp::single_node_config());
  for (const auto& rec : m.invocations) {
    const double sum = rec.stage_frontend + rec.stage_profiler +
                       rec.stage_scheduler + rec.stage_pool +
                       rec.stage_container + rec.stage_exec;
    EXPECT_NEAR(sum, rec.response_latency, 1e-6);
  }
}

TEST(Engine, RejectsOversizedInvocationGracefully) {
  auto trace = workload::burst_trace(*catalog(), 1, 5);
  trace[0].user_alloc = {1000, 1024};  // cannot fit any node
  EngineConfig cfg = exp::single_node_config();
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(std::move(trace));
  auto m = engine.run(source);
  EXPECT_EQ(m.incomplete, 1);
  EXPECT_FALSE(m.invocations[0].completed);
}

TEST(Engine, QueuesWhenCapacityExhausted) {
  // Many simultaneous heavy invocations on a small node: some must wait.
  EngineConfig cfg;
  cfg.node_capacities = {Resources{8, 8192}};
  cfg.num_shards = 1;
  auto trace = workload::burst_trace(*catalog(), 30, 21);
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(std::move(trace));
  auto m = engine.run(source);
  EXPECT_EQ(m.incomplete, 0);
  double max_sched_wait = 0;
  for (const auto& rec : m.invocations)
    max_sched_wait = std::max(max_sched_wait, rec.stage_scheduler);
  EXPECT_GT(max_sched_wait, 1.0);  // real queueing happened
}

TEST(Engine, ShardedCapacityIsIndependent) {
  EngineConfig cfg;
  cfg.node_capacities = {Resources{32, 32768}};
  cfg.num_shards = 4;
  auto trace = workload::burst_trace(*catalog(), 40, 23);
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(std::move(trace));
  auto m = engine.run(source);
  EXPECT_EQ(m.incomplete, 0);
}

TEST(Engine, ThrowsOnBadConfig) {
  EngineConfig no_nodes;
  EXPECT_THROW(Engine(no_nodes, std::make_shared<baselines::DefaultPolicy>()),
               std::invalid_argument);
  EngineConfig bad_shards = exp::single_node_config();
  bad_shards.num_shards = 0;
  EXPECT_THROW(
      Engine(bad_shards, std::make_shared<baselines::DefaultPolicy>()),
      std::invalid_argument);
  EXPECT_THROW(Engine(exp::single_node_config(), nullptr),
               std::invalid_argument);
}

TEST(Engine, DuplicateInvocationIdsRejected) {
  auto trace = workload::burst_trace(*catalog(), 2, 5);
  trace[1].id = trace[0].id;
  Engine engine(exp::single_node_config(),
                std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(std::move(trace));
  EXPECT_THROW(engine.run(source), std::invalid_argument);
}

TEST(Engine, MeasuresRealSchedulingOverheadWhenAsked) {
  EngineConfig cfg = exp::single_node_config();
  cfg.measure_real_sched_overhead = true;
  auto trace = workload::burst_trace(*catalog(), 20, 27);
  Engine engine(cfg, std::make_shared<baselines::DefaultPolicy>());
  workload::MaterializedSource source(std::move(trace));
  auto m = engine.run(source);
  EXPECT_GE(m.sched_overhead_seconds.size(), 20u);
  for (double s : m.sched_overhead_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 0.1);
  }
}

// Property sweep: every platform completes every invocation on every seed,
// and reported speedups are internally consistent.
class PlatformSweep
    : public ::testing::TestWithParam<std::tuple<exp::PlatformKind, uint64_t>> {
};

TEST_P(PlatformSweep, CompletesAllWithConsistentRecords) {
  const auto [kind, seed] = GetParam();
  auto trace = workload::single_node_trace(*catalog(), seed);
  auto policy = exp::make_platform(kind, catalog());
  auto m = exp::run_experiment(exp::single_node_config(), policy,
                               std::move(trace));
  EXPECT_EQ(m.incomplete, 0) << exp::platform_name(kind);
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed);
    EXPECT_GT(rec.response_latency, 0.0);
    // speedup = (t_user - t_actual) / t_user must match the stored fields.
    if (rec.user_latency > 0) {
      EXPECT_NEAR(rec.speedup,
                  (rec.user_latency - rec.response_latency) / rec.user_latency,
                  1e-9);
      EXPECT_LT(rec.speedup, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatforms, PlatformSweep,
    ::testing::Combine(::testing::Values(exp::PlatformKind::kDefault,
                                         exp::PlatformKind::kFreyr,
                                         exp::PlatformKind::kLibra,
                                         exp::PlatformKind::kLibraNS,
                                         exp::PlatformKind::kLibraNP,
                                         exp::PlatformKind::kLibraNSP),
                       ::testing::Values(3u, 7u)));

}  // namespace
}  // namespace libra::sim
