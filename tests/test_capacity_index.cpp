// The free-capacity index (DESIGN.md §5l) against trivially correct models:
// its roots against a brute-force maximum after every reserve, release and
// refused reservation; every scheduler against its scan before the index
// (scheduler_reference.h) on random full, nearly full and partly suspected
// clusters; and a saturated engine run in which the index proves most
// coverage picks full.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/schedulers.h"
#include "core/libra_policy.h"
#include "core/predictor.h"
#include "core/scheduler.h"
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
// The index inside the engine
// ---------------------------------------------------------------------------

/// Predicts twice the user CPU allocation, so every invocation is
/// accelerable and the coverage scheduler decides it.
class TwiceCpuPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "twice-cpu"; }
  void predict(sim::Invocation& inv) override {
    inv.pred_demand = {2.0 * inv.user_alloc.cpu, inv.user_alloc.mem};
    inv.pred_duration = 1.0;
    inv.pred_size_related = false;
    inv.first_seen = false;
  }
  void observe(const core::Observation&) override {}
};

/// A CoverageScheduler that counts its picks and those whose shard the
/// index proved full.
class CountingCoverage final : public core::SchedulerStrategy {
 public:
  explicit CountingCoverage(const core::PoolStatusProvider* provider)
      : inner_(provider, 0.9) {}
  std::string name() const override { return inner_.name(); }
  NodeId select(sim::Invocation& inv, sim::EngineApi& api) override {
    ++picks_;
    if (core::no_node_fits(inv, api)) ++proven_full_;
    return inner_.select(inv, api);
  }
  long picks() const { return picks_; }
  long proven_full() const { return proven_full_; }

 private:
  core::CoverageScheduler inner_;
  long picks_ = 0;
  long proven_full_ = 0;
};

/// Libra with the counting coverage scheduler wired in directly. The
/// provider outlives the run.
struct CountingLibra {
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

  CountingLibra() {
    policy = std::make_shared<core::LibraPolicy>(
        core::LibraPolicyConfig{}, std::make_shared<TwiceCpuPredictor>(),
        scheduler);
    provider->policy = policy.get();
  }
};

TEST(CapacityIndexEngine, SaturatedRunProvesMostCoveragePicksFull) {
  static const auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  CountingLibra libra;
  sim::Engine engine(exp::jetstream_config(3, 4), libra.policy);
  workload::MaterializedSource source(
      workload::burst_trace(*catalog, 300, 11));
  const sim::RunMetrics metrics = engine.run(source);
  // Saturated: most decisions park, every decision is a coverage pick, and
  // most picks end in the index's proof.
  EXPECT_EQ(metrics.finalized_completed, 300);
  EXPECT_GT(metrics.sched_decisions, 5 * 300);
  EXPECT_EQ(libra.scheduler->picks(), metrics.sched_decisions);
  EXPECT_GT(libra.scheduler->proven_full(), metrics.sched_decisions / 2);
}

}  // namespace
}  // namespace libra
