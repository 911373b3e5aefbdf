#include <gtest/gtest.h>

#include <thread>

#include "core/harvest_pool.h"

namespace libra::core {
namespace {

using sim::Resources;

TEST(HarvestPool, PutThenGetGrants) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, /*est_completion=*/10.0, /*now=*/0.0);
  const auto grants = pool.get({1, 128}, /*borrower=*/9, 0.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 1);
  EXPECT_DOUBLE_EQ(grants[0].amount.cpu, 1);
  EXPECT_DOUBLE_EQ(grants[0].amount.mem, 128);
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 1);
}

TEST(HarvestPool, GetIsBestEffort) {
  HarvestResourcePool pool;
  pool.put(1, {1, 64}, 10.0, 0.0);
  const auto grants = pool.get({4, 512}, 9, 0.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0].amount.cpu, 1);
  EXPECT_TRUE(pool.idle_total().is_zero());
}

TEST(HarvestPool, EmptyPoolGrantsNothing) {
  HarvestResourcePool pool;
  EXPECT_TRUE(pool.get({2, 128}, 9, 0.0).empty());
}

TEST(HarvestPool, TimelinessOrderLendsLongestLivedFirst) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, /*expires*/ 5.0, 0.0);
  pool.put(2, {1, 0}, /*expires*/ 50.0, 0.0);  // lives longer
  const auto grants = pool.get({1, 0}, 9, 0.0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 2);
}

TEST(HarvestPool, BlindOrderIgnoresTimeliness) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, 5.0, 0.0);
  pool.put(2, {1, 0}, 50.0, 0.0);
  HarvestResourcePool::GetOptions opt;
  opt.timeliness_order = false;  // Freyr mode: id order
  const auto grants = pool.get({1, 0}, 9, 0.0, opt);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 1);
}

TEST(HarvestPool, SpansMultipleSources) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, 30.0, 0.0);
  pool.put(2, {2, 0}, 40.0, 0.0);
  const auto grants = pool.get({3, 0}, 9, 0.0);
  EXPECT_EQ(grants.size(), 2u);
  double total = 0;
  for (const auto& g : grants) total += g.amount.cpu;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(HarvestPool, MemExpiryFloorFiltersShortLivedMemory) {
  HarvestResourcePool pool;
  pool.put(1, {0, 512}, /*expires*/ 5.0, 0.0);
  pool.put(2, {0, 512}, /*expires*/ 100.0, 0.0);
  HarvestResourcePool::GetOptions opt;
  opt.mem_expiry_floor = 50.0;  // borrower runs until t=50
  const auto grants = pool.get({0, 1024}, 9, 0.0, opt);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].source, 2);
  EXPECT_DOUBLE_EQ(grants[0].amount.mem, 512);
}

TEST(HarvestPool, PreemptSourceRevokesOutstandingGrants) {
  HarvestResourcePool pool;
  pool.put(1, {4, 0}, 10.0, 0.0);
  pool.get({3, 0}, 9, 1.0);  // borrower 9 takes 3 cores
  const auto revs = pool.preempt_source(1, 2.0);
  ASSERT_EQ(revs.size(), 1u);
  EXPECT_EQ(revs[0].borrower, 9);
  EXPECT_DOUBLE_EQ(revs[0].amount.cpu, 3.0);
  EXPECT_TRUE(pool.idle_total().is_zero());
  EXPECT_EQ(pool.entry_count(), 0u);
}

TEST(HarvestPool, PreemptAggregatesPerBorrower) {
  HarvestResourcePool pool;
  pool.put(1, {4, 400}, 10.0, 0.0);
  pool.get({2, 0}, 9, 0.5);
  pool.get({1, 200}, 9, 0.6);
  const auto revs = pool.preempt_source(1, 1.0);
  ASSERT_EQ(revs.size(), 1u);
  EXPECT_DOUBLE_EQ(revs[0].amount.cpu, 3.0);
  EXPECT_DOUBLE_EQ(revs[0].amount.mem, 200.0);
}

TEST(HarvestPool, ReharvestReturnsToLiveSource) {
  HarvestResourcePool pool;
  pool.put(1, {4, 0}, 10.0, 0.0);
  pool.get({3, 0}, 9, 1.0);
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 1.0);
  pool.reharvest(9, 2.0);  // borrower finished early; source still running
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 4.0);
  // Re-entered volume keeps the original priority: lendable again.
  EXPECT_EQ(pool.get({4, 0}, 10, 3.0).size(), 1u);
}

TEST(HarvestPool, ReharvestAfterSourceGoneDropsVolume) {
  HarvestResourcePool pool;
  pool.put(1, {4, 0}, 10.0, 0.0);
  pool.get({3, 0}, 9, 1.0);
  pool.preempt_source(1, 2.0);
  pool.reharvest(9, 3.0);  // nothing to return to
  EXPECT_TRUE(pool.idle_total().is_zero());
}

TEST(HarvestPool, SnapshotReportsIdleEntriesOnly) {
  HarvestResourcePool pool;
  pool.put(1, {2, 100}, 10.0, 0.0);
  pool.put(2, {1, 0}, 20.0, 0.0);
  pool.get({1, 0}, 9, 0.0);  // drains entry 2 (longest-lived first)
  const auto status = pool.snapshot(1.0);
  ASSERT_EQ(status.entries.size(), 1u);
  EXPECT_DOUBLE_EQ(status.entries[0].volume.cpu, 2.0);
  EXPECT_DOUBLE_EQ(status.taken_at, 1.0);
}

TEST(HarvestPool, IdleTimeIntegralsAccrue) {
  HarvestResourcePool pool;
  pool.put(1, {2, 100}, 100.0, /*now=*/0.0);
  // 2 cores idle for 10 seconds.
  const auto at10 = pool.idle_integrals(10.0);
  EXPECT_NEAR(at10.cpu_core_seconds, 20.0, 1e-9);
  EXPECT_NEAR(at10.mem_mb_seconds, 1000.0, 1e-9);
  // Borrow everything: idle accrual stops.
  pool.get({2, 100}, 9, 10.0);
  EXPECT_NEAR(pool.idle_integrals(30.0).cpu_core_seconds, 20.0, 1e-9);
}

TEST(HarvestPool, MergingPutsAccumulateAndKeepLaterExpiry) {
  HarvestResourcePool pool;
  pool.put(1, {1, 0}, 10.0, 0.0);
  pool.put(1, {2, 0}, 30.0, 0.0);
  EXPECT_EQ(pool.entry_count(), 1u);
  EXPECT_DOUBLE_EQ(pool.idle_total().cpu, 3.0);
  const auto status = pool.snapshot(0.0);
  EXPECT_DOUBLE_EQ(status.entries[0].est_expiry, 30.0);
}

TEST(HarvestPool, PreemptSourceIsIdempotent) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, 10.0, 0.0);
  pool.get({1, 128}, /*borrower=*/9, 0.0);
  const auto first = pool.preempt_source(1, 1.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].borrower, 9);
  EXPECT_DOUBLE_EQ(first[0].amount.cpu, 1.0);
  EXPECT_EQ(pool.entry_count(), 0u);
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
  // Preempting an already-preempted (or unknown) source changes nothing.
  EXPECT_TRUE(pool.preempt_source(1, 2.0).empty());
  EXPECT_TRUE(pool.preempt_source(77, 2.0).empty());
  EXPECT_EQ(pool.entry_count(), 0u);
}

TEST(HarvestPool, ReharvestAfterSourcePreemptedReturnsNothing) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, 10.0, 0.0);
  pool.get({1, 128}, 9, 0.0);
  pool.preempt_source(1, 1.0);  // source gone; borrower's grant is void
  pool.reharvest(9, 2.0);
  EXPECT_EQ(pool.entry_count(), 0u);
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
  EXPECT_TRUE(pool.idle_total().is_zero());
}

TEST(HarvestPool, PreemptAllDrainsEntriesAndAggregatesGrants) {
  HarvestResourcePool pool;
  pool.put(1, {2, 256}, 10.0, 0.0);
  pool.put(2, {3, 512}, 20.0, 0.0);
  pool.get({1.5, 200}, /*borrower=*/8, 0.0);   // spans entry 2 (+ maybe 1)
  pool.get({0.5, 64}, /*borrower=*/9, 0.0);
  const auto revocations = pool.preempt_all(1.0);
  sim::Resources revoked;
  for (const auto& rev : revocations) revoked += rev.amount;
  EXPECT_DOUBLE_EQ(revoked.cpu, 2.0);
  EXPECT_DOUBLE_EQ(revoked.mem, 264.0);
  EXPECT_EQ(pool.entry_count(), 0u);
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
  EXPECT_TRUE(pool.idle_total().is_zero());
  EXPECT_TRUE(pool.preempt_all(2.0).empty());
  // Grants after the wipe come from nothing: the pool really is empty.
  EXPECT_TRUE(pool.get({1, 64}, 7, 3.0).empty());
}

TEST(HarvestPool, IdleIntegralsAreMonotoneUnderInterleavedOps) {
  // Fig. 10's idle-time integrals accumulate history; no put/get/preempt
  // sequence may ever make them shrink.
  HarvestResourcePool pool;
  double last_cpu = 0.0, last_mem = 0.0;
  auto check = [&](double now) {
    const auto [cpu, mem] = pool.idle_integrals(now);
    EXPECT_GE(cpu, last_cpu - 1e-12);
    EXPECT_GE(mem, last_mem - 1e-12);
    last_cpu = cpu;
    last_mem = mem;
  };
  pool.put(1, {2, 256}, 100.0, 0.0);
  check(1.0);
  pool.get({1, 128}, 9, 1.0);
  check(2.0);
  pool.put(2, {4, 512}, 100.0, 2.0);
  check(3.0);
  pool.preempt_source(1, 3.0);
  check(4.0);
  pool.reharvest(9, 4.0);
  check(5.0);
  pool.preempt_all(5.0);
  check(6.0);
  check(10.0);  // pool empty: integrals frozen, never decreasing
  EXPECT_GT(last_cpu, 0.0);
  EXPECT_GT(last_mem, 0.0);
}

TEST(HarvestPool, ConcurrentAccessIsSafe) {
  // §5.1 "Concurrency": the pool must keep a consistent view under
  // concurrent access (mutex-protected in the implementation).
  HarvestResourcePool pool;
  for (int i = 0; i < 64; ++i)
    pool.put(i, {1, 64}, 1000.0, 0.0);
  std::vector<std::thread> threads;
  std::atomic<int> grants{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, &grants, t] {
      for (int i = 0; i < 200; ++i) {
        const auto g = pool.get({0.25, 16}, 1000 + t * 1000 + i, 1.0);
        if (!g.empty()) grants.fetch_add(1);
        pool.reharvest(1000 + t * 1000 + i, 2.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(grants.load(), 0);
  // All volume returned by reharvest: the pool is whole again.
  EXPECT_NEAR(pool.idle_total().cpu, 64.0, 1e-6);
}

}  // namespace
}  // namespace libra::core
