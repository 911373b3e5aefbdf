#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "sim/container_pool.h"
#include "sim/event_queue.h"
#include "sim/execution_model.h"
#include "sim/node.h"
#include "sim/types.h"

namespace libra::sim {
namespace {

// ---------------- EventQueue ----------------

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, FifoTieBreakAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsDispatch) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(1.0, [&] { fired = true; });
  q.cancel(id);
  q.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  q.run();
  q.cancel(id);  // must not crash or corrupt state
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule_after(1.0, [&chain] { chain(); });
  };
  q.schedule(0.0, [&chain] { chain(); });
  q.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });
  q.schedule(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, NonFiniteTimeThrows) {
  // A NaN time used to pass the past-time check, dispatch before every
  // finite event and set now() to NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  for (const double t : {nan, inf, -inf}) {
    EXPECT_THROW(q.schedule(t, [&] { order.push_back(0); }),
                 std::invalid_argument);
    EXPECT_THROW(q.schedule_arrival(t, [&] { order.push_back(0); }),
                 std::invalid_argument);
    EXPECT_THROW(q.schedule_after(t, [&] { order.push_back(0); }),
                 std::invalid_argument);
  }
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

// ---------------- Resources ----------------

TEST(Resources, ArithmeticAndFits) {
  Resources a{4, 1024}, b{1, 256};
  EXPECT_EQ((a + b).cpu, 5);
  EXPECT_EQ((a - b).mem, 768);
  EXPECT_TRUE(b.fits_in(a));
  EXPECT_FALSE(a.fits_in(b));
  EXPECT_TRUE((a * 0).is_zero());
  EXPECT_EQ(Resources::min(a, b).cpu, 1);
  EXPECT_EQ(Resources::max(a, b).mem, 1024);
}

TEST(Resources, ClampNonNegative) {
  Resources r{-1, 5};
  const auto c = r.clamped_non_negative();
  EXPECT_EQ(c.cpu, 0);
  EXPECT_EQ(c.mem, 5);
}

// ---------------- Node ----------------

TEST(Node, ShardSlicesAreEven) {
  Node n(0, {32, 32768}, 4);
  EXPECT_DOUBLE_EQ(n.shard_capacity().cpu, 8);
  EXPECT_DOUBLE_EQ(n.shard_capacity().mem, 8192);
}

TEST(Node, ReserveRespectsShardSlice) {
  Node n(0, {32, 32768}, 4);
  EXPECT_TRUE(n.try_reserve(0, {8, 1024}));
  // Shard 0's slice is exhausted on CPU; shard 1 is independent.
  EXPECT_FALSE(n.try_reserve(0, {1, 0}));
  EXPECT_TRUE(n.try_reserve(1, {8, 1024}));
  EXPECT_DOUBLE_EQ(n.allocated().cpu, 16);
  EXPECT_DOUBLE_EQ(n.free().cpu, 16);
}

TEST(Node, ReleaseRestoresCapacity) {
  Node n(0, {8, 8192}, 1);
  ASSERT_TRUE(n.try_reserve(0, {8, 1024}));
  n.release(0, {8, 1024});
  EXPECT_TRUE(n.try_reserve(0, {8, 1024}));
}

TEST(Node, OverReleaseThrows) {
  Node n(0, {8, 8192}, 1);
  ASSERT_TRUE(n.try_reserve(0, {2, 100}));
  EXPECT_THROW(n.release(0, {4, 100}), std::logic_error);
}

TEST(Node, InvalidConstructionThrows) {
  EXPECT_THROW(Node(0, {0, 100}, 1), std::invalid_argument);
  EXPECT_THROW(Node(0, {1, 100}, 0), std::invalid_argument);
}

// ---------------- ContainerPool ----------------

TEST(ContainerPool, ColdThenWarm) {
  ContainerPool pool;
  const auto first = pool.acquire(1, 0.0);
  EXPECT_TRUE(first.cold);
  pool.release(1, 1.0);
  const auto second = pool.acquire(1, 2.0);
  EXPECT_FALSE(second.cold);
  EXPECT_LT(second.delay, first.delay);
  EXPECT_EQ(pool.total_cold_starts(), 1);
  EXPECT_EQ(pool.total_warm_starts(), 1);
}

TEST(ContainerPool, KeepAliveExpiry) {
  ContainerPoolConfig cfg;
  cfg.keep_alive = 10.0;
  ContainerPool pool(cfg);
  pool.acquire(1, 0.0);
  pool.release(1, 1.0);
  EXPECT_EQ(pool.warm_count(1, 5.0), 1);
  EXPECT_EQ(pool.warm_count(1, 20.0), 0);
  EXPECT_TRUE(pool.acquire(1, 20.0).cold);
}

TEST(ContainerPool, PerFunctionIsolation) {
  ContainerPool pool;
  pool.acquire(1, 0.0);
  pool.release(1, 1.0);
  EXPECT_TRUE(pool.acquire(2, 2.0).cold);
}

TEST(ContainerPool, MaxWarmCap) {
  constexpr int kCap = ContainerPoolConfig::max_warm_per_function;
  ContainerPool pool;
  for (int i = 0; i < kCap + 3; ++i) pool.release(1, static_cast<double>(i));
  EXPECT_EQ(pool.warm_count(1, kCap + 3.0), kCap);
}

// ---------------- ExecutionModel ----------------

TEST(ExecutionModel, RateCappedByDemand) {
  ExecutionModel m;
  DemandProfile p{{4, 512}, 100.0, 64.0};
  EXPECT_DOUBLE_EQ(m.rate({8, 1024}, p), 4.0);  // extra CPU is useless
  EXPECT_DOUBLE_EQ(m.rate({2, 1024}, p), 2.0);  // throttled
}

TEST(ExecutionModel, ExecTimeInverseInRate) {
  ExecutionModel m;
  DemandProfile p{{4, 512}, 100.0, 64.0};
  EXPECT_DOUBLE_EQ(m.exec_time({4, 512}, p), 25.0);
  EXPECT_DOUBLE_EQ(m.exec_time({2, 512}, p), 50.0);
}

TEST(ExecutionModel, MemoryPenaltySlowsProgress) {
  ExecutionModel m;
  DemandProfile p{{2, 1000}, 10.0, 64.0};
  const double full = m.rate({2, 1000}, p);
  const double squeezed = m.rate({2, 500}, p);
  EXPECT_LT(squeezed, full);
  EXPECT_GT(squeezed, 0.0);
  // Penalty floor keeps heavy paging from stalling completely.
  const double floored = m.rate({2, 80}, p);
  EXPECT_GE(floored, full * ExecutionModel::kMemPenaltyFloor * 0.999);
}

TEST(ExecutionModel, BelowOomFloorStalls) {
  ExecutionModel m;
  DemandProfile p{{2, 1000}, 10.0, 256.0};
  EXPECT_TRUE(m.below_oom_floor({2, 100}, p));
  EXPECT_DOUBLE_EQ(m.rate({2, 100}, p), 0.0);
  EXPECT_TRUE(std::isinf(m.exec_time({2, 100}, p)));
}

TEST(ExecutionModel, MemUsageRampsToPeak) {
  ExecutionModel m;
  DemandProfile p{{2, 1000}, 10.0, 100.0};
  EXPECT_DOUBLE_EQ(m.mem_usage(0.0, p), 100.0);
  EXPECT_DOUBLE_EQ(m.mem_usage(1.0, p), 1000.0);
  EXPECT_LT(m.mem_usage(0.3, p), 1000.0);
  EXPECT_GT(m.mem_usage(0.3, p), 100.0);
  // Past the ramp end the usage is pinned at the peak.
  EXPECT_DOUBLE_EQ(m.mem_usage(0.9, p), 1000.0);
}

// Property: rate is monotone non-decreasing in each allocation axis.
class RateMonotone : public ::testing::TestWithParam<double> {};

TEST_P(RateMonotone, MonotoneInAllocation) {
  ExecutionModel m;
  DemandProfile p{{GetParam(), 800}, 50.0, 96.0};
  double prev = 0.0;
  for (double cpu = 0.5; cpu <= 10.0; cpu += 0.5) {
    const double r = m.rate({cpu, 800}, p);
    EXPECT_GE(r, prev - 1e-12);
    prev = r;
  }
  prev = 0.0;
  for (double mem = 100; mem <= 1600; mem += 100) {
    const double r = m.rate({4, mem}, p);
    EXPECT_GE(r, prev - 1e-12);
    prev = r;
  }
}

INSTANTIATE_TEST_SUITE_P(Demands, RateMonotone,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace libra::sim
