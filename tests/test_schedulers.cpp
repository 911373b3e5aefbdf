#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>

#include "baselines/default_policy.h"
#include "baselines/schedulers.h"
#include "core/scheduler.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

using core::PoolStatus;
using sim::Invocation;
using sim::Resources;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

/// Minimal engine wrapper to exercise schedulers against live nodes.
class SchedulerFixture : public ::testing::Test {
 protected:
  SchedulerFixture()
      : engine_(make_config(), std::make_shared<baselines::DefaultPolicy>()) {}

  static sim::EngineConfig make_config() {
    sim::EngineConfig cfg;
    cfg.node_capacities.assign(4, Resources{32, 32768});
    cfg.num_shards = 1;
    return cfg;
  }

  Invocation make_inv(int func, uint64_t seed) {
    util::Rng rng(seed);
    auto inv = workload::make_invocation(*catalog(), next_id_++, func,
                                         catalog()->at(func).sample_input(rng),
                                         0.0);
    inv.shard = 0;
    return inv;
  }

  sim::Engine engine_;
  int64_t next_id_ = 0;
};

TEST_F(SchedulerFixture, HashIsStickyPerFunction) {
  baselines::HashScheduler hash;
  auto a = make_inv(2, 1);
  auto b = make_inv(2, 2);
  auto c = make_inv(3, 3);
  const auto na = hash.select(a, engine_);
  const auto nb = hash.select(b, engine_);
  EXPECT_EQ(na, nb);  // same function -> same node
  (void)c;
}

TEST_F(SchedulerFixture, HashAdvancesWhenTargetFull) {
  baselines::HashScheduler hash;
  auto probe = make_inv(2, 1);
  const auto target = hash.select(probe, engine_);
  // Fill the target node's slice completely.
  ASSERT_TRUE(engine_.node(target).try_reserve(
      0, engine_.node(target).shard_capacity()));
  auto next = make_inv(2, 2);
  const auto moved = hash.select(next, engine_);
  EXPECT_NE(moved, target);
  EXPECT_NE(moved, sim::kNoNode);
}

TEST_F(SchedulerFixture, RoundRobinCyclesNodes) {
  baselines::RoundRobinScheduler rr;
  std::set<sim::NodeId> seen;
  for (int i = 0; i < 4; ++i) {
    auto inv = make_inv(0, static_cast<uint64_t>(i));
    seen.insert(rr.select(inv, engine_));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST_F(SchedulerFixture, JsqPrefersLeastBusyNode) {
  baselines::JsqScheduler jsq;
  engine_.node(0).invocation_started();
  engine_.node(1).invocation_started();
  engine_.node(2).invocation_started();
  auto inv = make_inv(0, 1);
  EXPECT_EQ(jsq.select(inv, engine_), 3);
}

TEST_F(SchedulerFixture, MwsPrefersLeastPressure) {
  baselines::MwsScheduler mws;
  ASSERT_TRUE(engine_.node(0).try_reserve(0, {16, 1024}));
  ASSERT_TRUE(engine_.node(1).try_reserve(0, {8, 1024}));
  ASSERT_TRUE(engine_.node(2).try_reserve(0, {4, 1024}));
  auto inv = make_inv(0, 1);
  EXPECT_EQ(mws.select(inv, engine_), 3);
}

TEST_F(SchedulerFixture, AllReturnNoNodeWhenNothingFits) {
  baselines::RoundRobinScheduler rr;
  baselines::JsqScheduler jsq;
  baselines::MwsScheduler mws;
  auto inv = make_inv(0, 1);
  inv.user_alloc = {64, 1024};  // larger than any shard slice
  EXPECT_EQ(rr.select(inv, engine_), sim::kNoNode);
  EXPECT_EQ(jsq.select(inv, engine_), sim::kNoNode);
  EXPECT_EQ(mws.select(inv, engine_), sim::kNoNode);
}

TEST_F(SchedulerFixture, CoveragePicksNodeWithPooledSupply) {
  // Node 2 advertises pooled idle CPU covering the invocation's gap.
  struct FixedProvider final : core::PoolStatusProvider {
    FixedProvider() {
      rich.entries.push_back({{8, 1024}, 1e6});
    }
    const PoolStatus& pool_status(sim::NodeId node) const override {
      return node == 2 ? rich : empty;
    }
    PoolStatus rich, empty;
  } provider;
  core::CoverageScheduler cov(&provider, 0.9);
  auto inv = make_inv(/*VP*/ 5, 1);
  inv.pred_demand = {8, 512};  // accelerable: wants 6 extra cores
  inv.pred_duration = 10.0;
  ASSERT_TRUE(inv.accelerable());
  EXPECT_EQ(cov.select(inv, engine_), 2);
}

TEST_F(SchedulerFixture, CoverageFallsBackToHashForNonAccelerable) {
  struct EmptyProvider final : core::PoolStatusProvider {
    const PoolStatus& pool_status(sim::NodeId) const override { return empty; }
    PoolStatus empty;
  } provider;
  core::CoverageScheduler cov(&provider, 0.9);
  baselines::HashScheduler hash;
  auto a = make_inv(0, 1);
  a.pred_demand = a.user_alloc;  // not accelerable
  auto b = make_inv(0, 2);
  b.pred_demand = b.user_alloc;
  EXPECT_EQ(cov.select(a, engine_), cov.select(b, engine_));
}

TEST_F(SchedulerFixture, CoverageRespectsAlphaWeighting) {
  // Node 1 has CPU-only supply, node 2 memory-only. With alpha=0.9 the
  // CPU-rich node must win; with alpha=0.05 the memory-rich node wins.
  struct SplitProvider final : core::PoolStatusProvider {
    SplitProvider() {
      cpu_rich.entries.push_back({{8, 0}, 1e6});
      mem_rich.entries.push_back({{0, 4096}, 1e6});
    }
    const PoolStatus& pool_status(sim::NodeId node) const override {
      if (node == 1) return cpu_rich;
      if (node == 2) return mem_rich;
      return empty;
    }
    PoolStatus cpu_rich, mem_rich, empty;
  } provider;
  auto inv = make_inv(5, 1);
  inv.pred_demand = {8, 2048};
  inv.pred_duration = 10.0;
  core::CoverageScheduler cpu_heavy(&provider, 0.9);
  EXPECT_EQ(cpu_heavy.select(inv, engine_), 1);
  core::CoverageScheduler mem_heavy(&provider, 0.05);
  EXPECT_EQ(mem_heavy.select(inv, engine_), 2);
}

TEST(CoverageSchedulerConfig, RejectsAlphaOutsideTheUnitInterval) {
  // The pick skips empty views because both coverage weights, alpha and
  // 1 - alpha, are non-negative; fig16's sweep spans exactly [0, 1].
  for (const double alpha :
       {-1e-9, 1.0 + 1e-9, -1.0, 2.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(alpha);
    EXPECT_THROW(core::CoverageScheduler(nullptr, alpha),
                 std::invalid_argument);
  }
  for (const double alpha : {0.0, 0.05, 0.5, 0.9, 1.0})
    EXPECT_EQ(core::CoverageScheduler(nullptr, alpha).alpha(), alpha);
  // The platform knob reaches the constructor unchecked before it.
  exp::PlatformTuning tuning;
  tuning.coverage_alpha = 1.5;
  EXPECT_THROW(
      exp::make_platform(exp::PlatformKind::kLibraNP, catalog(), tuning),
      std::invalid_argument);
}

// Integration: the five §8.4 scheduling platforms all complete a multi-node
// workload, and the coverage scheduler wastes the least harvested time.
TEST(SchedulingIntegration, AllFiveAlgorithmsComplete) {
  auto trace = workload::multi_trace(*catalog(), 120, 5);
  for (auto kind :
       {exp::SchedulerKind::kDefaultHash, exp::SchedulerKind::kRoundRobin,
        exp::SchedulerKind::kJsq, exp::SchedulerKind::kMws,
        exp::SchedulerKind::kCoverage}) {
    auto policy = exp::make_scheduler_platform(kind, catalog());
    auto m = exp::run_experiment(exp::multi_node_config(), policy, trace);
    EXPECT_EQ(m.incomplete, 0) << exp::scheduler_name(kind);
    EXPECT_EQ(m.invocations.size(), trace.size());
  }
}

}  // namespace
}  // namespace libra
