// The free-capacity index (DESIGN.md §5l) against trivially correct models:
// its roots against a brute-force maximum after every reserve, release and
// refused reservation; every scheduler against its scan before the index
// (scheduler_reference.h) on random full, nearly full and partly suspected
// clusters; and a saturated run whose decisions speculate on four worker
// threads, so the sanitizers see speculation reading the index.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/schedulers.h"
#include "core/libra_policy.h"
#include "core/predictor.h"
#include "core/scheduler.h"
#include "exp/digest.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "sim/node.h"
#include "util/rng.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"
#include "fleet_api.h"
#include "scheduler_reference.h"

namespace libra {
namespace {

using sim::NodeId;
using sim::Resources;
using sim::ShardId;
using test::Fleet;
using test::FleetApi;
using test::kInf;
using test::same_bits;

// ---------------------------------------------------------------------------
// The index against a brute-force maximum
// ---------------------------------------------------------------------------

TEST(CapacityIndex, RootsEqualTheBruteForceMaximumAfterEveryOperation) {
  struct Held {
    size_t node;
    ShardId shard;
    Resources r;
  };
  for (const size_t n : {1, 2, 3, 10, 50, 1000}) {
    for (int shards = 1; shards <= 4; ++shards) {
      SCOPED_TRACE(std::to_string(n) + " nodes, " + std::to_string(shards) +
                   " shards");
      util::Rng rng(n * 8 + static_cast<size_t>(shards));
      Fleet fleet(n, shards, rng);
      ASSERT_TRUE(fleet.roots_exact());
      std::vector<Held> held;
      const int ops = n >= 1000 ? 500 : 2000;
      for (int op = 0; op < ops; ++op) {
        const double u = rng.uniform();
        const auto k = static_cast<size_t>(
            rng.uniform_int(0, static_cast<int64_t>(n) - 1));
        const auto s = static_cast<ShardId>(rng.uniform_int(0, shards - 1));
        sim::Node& node = fleet.nodes[k];
        if (u < 0.5 || held.empty()) {
          // Up to 60% of the slice per axis, so fills often fail.
          const Resources slice = node.shard_capacity();
          const Resources r{slice.cpu * rng.uniform(0.0, 0.6),
                            slice.mem * rng.uniform(0.0, 0.6)};
          if (node.try_reserve(s, r)) held.push_back({k, s, r});
        } else if (u < 0.9) {
          const auto h = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int64_t>(held.size()) - 1));
          fleet.nodes[held[h].node].release(held[h].shard, held[h].r);
          held[h] = held.back();
          held.pop_back();
        } else {
          // A down node refuses every reservation and its leaf stays put.
          node.set_up(false);
          EXPECT_FALSE(node.try_reserve(s, {0.0, 0.0}));
          node.set_up(true);
        }
        ASSERT_TRUE(fleet.roots_exact()) << "after operation " << op;
      }
    }
  }
}

TEST(CapacityIndex, EmptyIndexAndAttachBounds) {
  const sim::CapacityIndex empty;
  EXPECT_EQ(empty.max(0).cpu, -kInf);
  EXPECT_EQ(empty.max(0).mem, -kInf);
  sim::CapacityIndex index(2, 2);
  sim::Node outside(2, {8.0, 8192.0}, 2);
  EXPECT_THROW(outside.set_capacity_index(&index), std::invalid_argument);
  sim::Node other_shards(0, {8.0, 8192.0}, 3);
  EXPECT_THROW(other_shards.set_capacity_index(&index), std::invalid_argument);
  // One attached node of two: the other leaf still holds no capacity.
  sim::Node node(1, {8.0, 8192.0}, 2);
  node.set_capacity_index(&index);
  EXPECT_TRUE(same_bits(index.max(1), node.shard_free(1)));
}

// ---------------------------------------------------------------------------
// The schedulers against their scans before the index
// ---------------------------------------------------------------------------

/// Random ping-time pool snapshots: about half the nodes advertise one to
/// three entries, some already expired.
struct RandomStatuses final : core::PoolStatusProvider {
  std::vector<core::PoolStatus> statuses;
  RandomStatuses(size_t n, util::Rng& rng) : statuses(n) {
    for (auto& st : statuses) {
      if (rng.bernoulli(0.5)) continue;
      const auto entries = rng.uniform_int(1, 3);
      for (int64_t e = 0; e < entries; ++e)
        st.entries.push_back({{rng.uniform(0.0, 4.0), rng.uniform(0.0, 2048.0)},
                              10.0 + rng.uniform(-5.0, 30.0)});
    }
  }
  const core::PoolStatus& pool_status(NodeId node) const override {
    return statuses[static_cast<size_t>(node)];
  }
};

/// The scheduler pairs under comparison and the state each must keep equal.
struct Schedulers {
  explicit Schedulers(const core::PoolStatusProvider* statuses)
      : cov(statuses, 0.9), ref_cov(statuses, 0.9) {}

  core::StickyHashState sticky;
  reference::StickyHash ref_sticky;
  core::CoverageScheduler cov;
  reference::Coverage ref_cov;
  baselines::RoundRobinScheduler rr;
  reference::RoundRobin ref_rr;
  baselines::JsqScheduler jsq;
  baselines::MwsScheduler mws;
};

constexpr int kFunctions = 12;

/// One decision of every scheduler for `inv`, each compared with its
/// reference; when the index proves the shard full, the new scans must not
/// look at a single node. Returns whether it did.
bool compare_picks(Schedulers& s, FleetApi& api, sim::Invocation inv) {
  const bool proven = !inv.user_alloc.fits_in(api.max_shard_free(inv.shard));
  auto fast = [&](auto&& decide) {
    const long before = api.probes;
    const auto got = decide();
    if (proven) {
      EXPECT_EQ(api.probes, before) << "a proven-full pick scanned";
    }
    return got;
  };
  sim::Invocation a = inv;
  sim::Invocation b = inv;
  EXPECT_EQ(fast([&] { return s.sticky.pick(a, api); }),
            s.ref_sticky.pick(b, api));
  EXPECT_EQ(s.sticky.salt(inv.func), s.ref_sticky.salt(inv.func));
  EXPECT_EQ(s.cov.speculate(inv, api), s.ref_cov.speculate(inv, api));
  EXPECT_EQ(fast([&] { return s.cov.select(a, api); }),
            s.ref_cov.select(b, api));
  EXPECT_EQ(s.cov.sticky().salt(inv.func), s.ref_cov.sticky().salt(inv.func));
  EXPECT_EQ(fast([&] { return s.rr.select(a, api); }), s.ref_rr.select(b, api));
  EXPECT_EQ(s.rr.cursor(), s.ref_rr.cursor());
  EXPECT_EQ(fast([&] { return s.jsq.select(a, api); }),
            reference::jsq_select(b, api));
  EXPECT_EQ(fast([&] { return s.mws.select(a, api); }),
            reference::mws_select(b, api));
  return proven;
}

/// A user allocation for shard `shard` of `fleet`: small, typical, exactly
/// the shard's largest free slice, just past it, larger than any slice, or
/// NaN on one axis.
Resources draw_alloc(const Fleet& fleet, ShardId shard, util::Rng& rng) {
  const Resources root = fleet.index.max(shard);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (rng.uniform_int(0, 8)) {
    case 0: return {0.25, 128.0};
    case 1: return {1.0, 512.0};
    case 2: return {0.0, 0.0};
    case 3: return root;
    case 4: return {root.cpu + 2e-9, root.mem};
    case 5: return {root.cpu, root.mem + 1e-3};
    case 6: return {1e6, 1e9};
    case 7: return rng.bernoulli(0.5) ? Resources{nan, 256.0}
                                      : Resources{0.5, nan};
    default: return {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8192.0)};
  }
}

TEST(CapacityIndexScan, EverySchedulerMatchesItsScanOnRandomClusters) {
  for (const size_t n : {1, 2, 3, 10, 50}) {
    for (int shards = 1; shards <= 4; ++shards) {
      SCOPED_TRACE(std::to_string(n) + " nodes, " + std::to_string(shards) +
                   " shards");
      util::Rng rng(977 * n + static_cast<size_t>(shards));
      Fleet fleet(n, shards, rng);
      FleetApi api(fleet);
      const RandomStatuses statuses(n, rng);
      Schedulers s(&statuses);
      int proven = 0;
      int scanned = 0;
      for (int round = 0; round < 40; ++round) {
        // Fill every slice to a per-round regime: full, nearly full, loose
        // or a mix, with a few running invocations for JSQ to weigh, and
        // none, some or most nodes suspected down.
        const auto regime = rng.uniform_int(0, 3);
        std::vector<Resources> held;  // node-major, one per slice
        std::vector<int> running(n, 0);
        for (size_t k = 0; k < n; ++k) {
          sim::Node& node = fleet.nodes[k];
          for (ShardId sh = 0; sh < shards; ++sh) {
            const auto mode = regime == 3 ? rng.uniform_int(0, 2) : regime;
            const double f = mode == 0   ? 1.0
                             : mode == 1 ? rng.uniform(0.9, 1.0)
                                         : rng.uniform(0.0, 0.8);
            const Resources r = node.shard_capacity() * f;
            ASSERT_TRUE(node.try_reserve(sh, r));
            held.push_back(r);
          }
          running[k] = static_cast<int>(rng.uniform_int(0, 3));
          for (int i = 0; i < running[k]; ++i) node.invocation_started();
        }
        const double p_suspect = rng.uniform_int(0, 2) * 0.45;
        for (size_t k = 0; k < n; ++k)
          api.set_suspected(k, rng.bernoulli(p_suspect));
        ASSERT_TRUE(fleet.roots_exact());
        for (int pick = 0; pick < 12; ++pick) {
          sim::Invocation inv;
          inv.func = static_cast<sim::FunctionId>(
              rng.uniform_int(0, kFunctions - 1));
          inv.shard = static_cast<ShardId>(rng.uniform_int(0, shards - 1));
          inv.user_alloc = draw_alloc(fleet, inv.shard, rng);
          // Accelerable about half the time: the coverage scan decides.
          inv.pred_demand = inv.user_alloc;
          if (rng.bernoulli(0.5))
            inv.pred_demand += Resources{rng.uniform(0.1, 2.0), 0.0};
          inv.pred_duration = rng.uniform(0.1, 10.0);
          ++(compare_picks(s, api, inv) ? proven : scanned);
        }
        for (size_t k = 0; k < n; ++k) {
          for (int i = 0; i < running[k]; ++i)
            fleet.nodes[k].invocation_finished();
          for (ShardId sh = 0; sh < shards; ++sh)
            fleet.nodes[k].release(sh, held[k * static_cast<size_t>(shards) +
                                            static_cast<size_t>(sh)]);
        }
      }
      EXPECT_GT(proven, 0);
      EXPECT_GT(scanned, 0);
      for (sim::FunctionId f = 0; f < kFunctions; ++f) {
        EXPECT_EQ(s.sticky.salt(f), s.ref_sticky.salt(f)) << "function " << f;
        EXPECT_EQ(s.cov.sticky().salt(f), s.ref_cov.sticky().salt(f))
            << "function " << f;
      }
    }
  }
}

TEST(CapacityIndexScan, FullClusterAdvancesTheSaltByTheNodeCount) {
  util::Rng rng(5);
  Fleet fleet(7, 1, rng);
  FleetApi api(fleet);
  for (auto& node : fleet.nodes)
    ASSERT_TRUE(node.try_reserve(0, node.shard_capacity()));
  core::StickyHashState sticky;
  sim::Invocation inv;
  inv.func = 3;
  inv.user_alloc = {0.25, 64.0};
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(sticky.pick(inv, api), sim::kNoNode);
    EXPECT_EQ(sticky.salt(3), 7 * i);
  }
  EXPECT_EQ(api.probes, 0);
  EXPECT_EQ(sticky.salt(2), 0);  // never seen
}

TEST(CapacityIndexScan, NegativeFunctionIdThrows) {
  util::Rng rng(3);
  Fleet fleet(2, 1, rng);
  FleetApi api(fleet);
  core::StickyHashState sticky;
  sim::Invocation inv;
  inv.func = -1;
  inv.user_alloc = {0.25, 64.0};
  EXPECT_THROW(sticky.pick(inv, api), std::out_of_range);
  baselines::HashScheduler hash;
  EXPECT_THROW(hash.select(inv, api), std::out_of_range);
  EXPECT_EQ(sticky.salt(-1), 0);
}

// ---------------------------------------------------------------------------
// Speculation reads the index from worker threads
// ---------------------------------------------------------------------------

/// Predicts twice the user CPU allocation, so every invocation is
/// accelerable and the coverage scheduler decides (and speculates) it.
class TwiceCpuPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "twice-cpu"; }
  void predict(sim::Invocation& inv) override {
    inv.pred_demand = demand(inv);
    inv.pred_duration = 1.0;
    inv.pred_size_related = false;
    inv.first_seen = false;
  }
  std::optional<sim::PredictionMemo> speculate_predict(
      const sim::Invocation& inv) const override {
    sim::PredictionMemo memo;
    memo.pred_demand = demand(inv);
    memo.pred_duration = 1.0;
    return memo;
  }
  void observe(const core::Observation&) override {}

 private:
  static Resources demand(const sim::Invocation& inv) {
    return {2.0 * inv.user_alloc.cpu, inv.user_alloc.mem};
  }
};

/// A CoverageScheduler that counts, from whichever thread speculates, the
/// speculations and those whose shard the index proved full.
class CountingCoverage final : public core::SchedulerStrategy {
 public:
  explicit CountingCoverage(const core::PoolStatusProvider* provider)
      : inner_(provider, 0.9) {}
  std::string name() const override { return inner_.name(); }
  NodeId select(sim::Invocation& inv, sim::EngineApi& api) override {
    return inner_.select(inv, api);
  }
  std::optional<NodeId> speculate(const sim::Invocation& inv,
                                  const sim::EngineApi& api) const override {
    speculations_.fetch_add(1);
    if (core::no_node_fits(inv, api)) proven_full_.fetch_add(1);
    return inner_.speculate(inv, api);
  }
  long speculations() const { return speculations_.load(); }
  long proven_full() const { return proven_full_.load(); }

 private:
  core::CoverageScheduler inner_;
  mutable std::atomic<long> speculations_{0};
  mutable std::atomic<long> proven_full_{0};
};

/// Libra with the coverage scheduler wired in directly, so its decisions
/// speculate on the barrier's workers. The provider outlives the run.
struct SpeculatingLibra {
  struct Provider final : core::PoolStatusProvider {
    const core::LibraPolicy* policy = nullptr;
    const core::PoolStatus& pool_status(NodeId node) const override {
      return policy->pool_status(node);
    }
  };
  std::shared_ptr<Provider> provider = std::make_shared<Provider>();
  std::shared_ptr<CountingCoverage> scheduler =
      std::make_shared<CountingCoverage>(provider.get());
  std::shared_ptr<core::LibraPolicy> policy;

  SpeculatingLibra() {
    policy = std::make_shared<core::LibraPolicy>(
        core::LibraPolicyConfig{}, std::make_shared<TwiceCpuPredictor>(),
        scheduler);
    provider->policy = policy.get();
  }
};

struct SaturatedRun {
  sim::RunMetrics metrics;
  long speculations = 0;
  long proven_full = 0;
};

SaturatedRun run_saturated(int workers) {
  static const auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  SpeculatingLibra libra;
  sim::EngineConfig cfg = exp::jetstream_config(3, 4);
  cfg.sched_workers = workers;
  sim::Engine engine(cfg, libra.policy);
  workload::MaterializedSource source(
      workload::burst_trace(*catalog, 300, 11));
  SaturatedRun run;
  run.metrics = engine.run(source);
  run.speculations = libra.scheduler->speculations();
  run.proven_full = libra.scheduler->proven_full();
  return run;
}

TEST(CapacityIndexEngine, SaturatedRunSpeculatesOnFourWorkersLikeOne) {
  const SaturatedRun one = run_saturated(1);
  const SaturatedRun four = run_saturated(4);
  // Saturated: most decisions park. Four workers speculate every decision,
  // and most speculations end in the index's proof; one worker speculates
  // nothing (its decisions are plain select_node calls) and lands on the
  // same digest.
  EXPECT_EQ(one.metrics.finalized_completed, 300);
  EXPECT_GT(one.metrics.sched_decisions, 5 * 300);
  EXPECT_GT(four.proven_full, four.metrics.sched_decisions / 2);
  EXPECT_EQ(one.speculations, 0);
  EXPECT_EQ(exp::run_metrics_digest(one.metrics),
            exp::run_metrics_digest(four.metrics));
}

}  // namespace
}  // namespace libra
