// Multi-threaded stress tests for HarvestResourcePool. Named HarvestPool*
// so the tsan-pool CI job (-R HarvestPool) picks them up. Fixed seeds make
// the per-thread operation mix reproducible; the interleavings themselves
// come from the scheduler, which is the point — every operation re-runs the
// pool's conservation audit, so a torn update anywhere surfaces as either a
// TSan report or an audit diagnostic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/harvest_pool.h"
#include "util/audit.h"
#include "util/rng.h"

namespace libra::core {
namespace {

using sim::InvocationId;
using sim::Resources;

/// Monotonic sim clock shared by all workers: each op advances it by one
/// tick so audits always see a self-consistent `now` (per-thread clocks
/// would count spurious clock regressions, which is allowed but noisy).
double next_tick(std::atomic<long>& clock) {
  return 0.001 * static_cast<double>(clock.fetch_add(1) + 1);
}

TEST(HarvestPoolStress, ConcurrentMixedOpsPreserveInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;

  HarvestResourcePool pool;
  std::atomic<long> clock{0};
  const long failures_before = util::audit::failures_observed();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(1234 + static_cast<uint64_t>(t));  // fixed seed per thread
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Each thread owns a disjoint id range for sources and borrowers so
        // a preempt_source never races a put to the *same* source from
        // another thread at the semantic level (the pool must still be
        // internally consistent either way).
        const InvocationId source = 1000 * (t + 1) + rng.uniform_int(0, 19);
        const InvocationId borrower = 100000 * (t + 1) + rng.uniform_int(0, 9);
        const double now = next_tick(clock);
        switch (rng.uniform_int(0, 9)) {
          case 0:
          case 1:
          case 2:
          case 3: {  // put: harvest some volume
            Resources vol{rng.uniform(0.1, 2.0), rng.uniform(16.0, 256.0)};
            pool.put(source, vol, now + rng.uniform(0.5, 5.0), now);
            break;
          }
          case 4:
          case 5:
          case 6: {  // get: borrow best-effort
            HarvestResourcePool::GetOptions opt;
            opt.timeliness_order = (i % 2 == 0);
            pool.get({rng.uniform(0.1, 1.5), rng.uniform(16.0, 128.0)},
                     borrower, now, opt);
            break;
          }
          case 7:  // reharvest: borrower finished
            pool.reharvest(borrower, now);
            break;
          case 8:  // preemptive release of one source
            pool.preempt_source(source, now);
            break;
          default: {  // readers: consistent snapshots under contention
            HarvestResourcePool::DebugState st;
            pool.debug_state(st);
            const auto ii = pool.idle_integrals(now);
            EXPECT_GE(ii.cpu_core_seconds, 0.0);
            EXPECT_GE(ii.mem_mb_seconds, 0.0);
            pool.snapshot(now);
            break;
          }
        }
        // Every op is followed by a full conservation audit from this
        // thread, interleaved arbitrarily with the other workers' mutations.
        pool.audit_now(next_tick(clock));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(util::audit::failures_observed(), failures_before);
  pool.audit_now(next_tick(clock));

  // The final state must still satisfy conservation exactly: per source,
  // idle + outstanding == harvested.
  HarvestResourcePool::DebugState st;
  pool.debug_state(st);
  for (const auto& e : st.entries) {
    double borrowed_cpu = 0.0, borrowed_mem = 0.0;
    for (const auto& b : st.borrows) {
      if (b.source == e.source) {
        borrowed_cpu += b.amount.cpu;
        borrowed_mem += b.amount.mem;
      }
    }
    EXPECT_NEAR(e.idle.cpu + borrowed_cpu, e.harvested.cpu, 1e-6);
    EXPECT_NEAR(e.idle.mem + borrowed_mem, e.harvested.mem, 1e-6);
  }
}

TEST(HarvestPoolStress, ConcurrentPreemptAllNeverLeaksGrants) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 150;

  HarvestResourcePool pool;
  std::atomic<long> clock{0};
  const long failures_before = util::audit::failures_observed();

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(99 + static_cast<uint64_t>(t));
      for (int i = 0; i < kRounds; ++i) {
        const double now = next_tick(clock);
        if (t == 0 && i % 10 == 9) {
          // One thread periodically simulates a node crash.
          pool.preempt_all(now);
        } else {
          pool.put(10 * (t + 1) + rng.uniform_int(0, 3),
                   {rng.uniform(0.1, 1.0), rng.uniform(16.0, 64.0)},
                   now + 2.0, now);
          pool.get({0.5, 32.0}, 500 + t, now);
        }
        pool.audit_now(next_tick(clock));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(util::audit::failures_observed(), failures_before);

  // After a final crash-teardown the pool must be completely empty.
  pool.preempt_all(next_tick(clock));
  HarvestResourcePool::DebugState st;
  pool.debug_state(st);
  EXPECT_TRUE(st.entries.empty());
  EXPECT_TRUE(st.borrows.empty());
  EXPECT_EQ(pool.outstanding_borrows(), 0u);
}

// Regression for the torn (cpu, mem) idle-integral read: the per-axis
// getters each take the lock separately, so a writer slipping between the
// two calls could produce a pair that never existed. idle_integrals() reads
// both under one acquisition; with every entry holding mem = 128 x cpu, any
// torn pair breaks the exact ratio.
TEST(HarvestPoolStress, IdleIntegralPairIsNeverTorn) {
  constexpr double kRatio = 128.0;
  HarvestResourcePool pool;
  std::atomic<long> clock{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    util::Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
      const double now = next_tick(clock);
      const double cpu = rng.uniform(0.1, 1.0);
      pool.put(1 + (i % 8), {cpu, kRatio * cpu}, now + 1.0, now);
      if (i % 16 == 15) pool.preempt_all(now);
    }
    stop.store(true);
  });

  long reads = 0;
  do {  // at least one read even if the writer wins the race outright
    const double now = 0.001 * static_cast<double>(clock.load());
    const auto ii = pool.idle_integrals(now);
    // Both axes accrue from the same entries over the same intervals, so
    // the consistent pair preserves the volume ratio exactly.
    EXPECT_NEAR(ii.mem_mb_seconds, kRatio * ii.cpu_core_seconds,
                1e-6 + 1e-9 * ii.mem_mb_seconds);
    ++reads;
  } while (!stop.load());
  writer.join();
  EXPECT_GT(reads, 0);
}

}  // namespace
}  // namespace libra::core
