// The coverage pick's candidate set (DESIGN.md §5l) against the full scan it
// replaced, kept as reference::Coverage in scheduler_reference.h: the same
// pick and the same sticky salts on random clusters, through the policy's
// snapshots and through controller caches, with at most the occupied views
// plus a prefix scored; and Libra wired once to each on fuzzer scenarios,
// with equal run digests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "core/libra_policy.h"
#include "core/predictor_fault.h"
#include "core/scheduler.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "gen/synthetic_source.h"
#include "sim/chaos/fuzzer.h"
#include "sim/chaos/scenario.h"
#include "sim/engine.h"
#include "util/id_bitset.h"
#include "util/rng.h"
#include "workload/materialized_source.h"
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
using test::PoolViews;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// IdBitset
// ---------------------------------------------------------------------------

TEST(IdBitset, NextWalksTheSetIdsInOrder) {
  util::IdBitset bits(130);
  EXPECT_EQ(bits.next(0), util::IdBitset::npos);
  for (const size_t id : {0, 63, 64, 127, 129}) bits.set(id, true);
  bits.set(200, false);  // clearing past the end neither grows nor sets
  EXPECT_FALSE(bits.test(200));
  std::vector<size_t> seen;
  for (size_t i = bits.next(0); i != util::IdBitset::npos; i = bits.next(i + 1))
    seen.push_back(i);
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63, 64, 127, 129}));
  EXPECT_EQ(bits.next(65), 127u);
  EXPECT_EQ(bits.next(130), util::IdBitset::npos);
  bits.set(64, false);
  EXPECT_EQ(bits.next(1), 63u);
  EXPECT_EQ(bits.next(64), 127u);
  // Setting past the end grows the set.
  bits.set(1000, true);
  EXPECT_TRUE(bits.test(1000));
  EXPECT_EQ(bits.next(130), 1000u);
  EXPECT_EQ(bits.next(1001), util::IdBitset::npos);
}

// ---------------------------------------------------------------------------
// The pick against the full scan
// ---------------------------------------------------------------------------

/// The policy's side of the pick: one set of views, with or without its
/// occupancy bits. Counts the statuses read, one per node scored.
struct ViewProvider final : core::PoolStatusProvider {
  const PoolViews* views = nullptr;
  bool bits = true;
  mutable long reads = 0;
  const core::PoolStatus& pool_status(NodeId node) const override {
    ++reads;
    return views->statuses[static_cast<size_t>(node)];
  }
  const util::IdBitset* occupied_views() const override {
    return bits ? &views->occupied : nullptr;
  }
};

/// One pool entry of every kind a view can hold: live, already expired (at
/// or before now), zero on one or both axes, sharing the previous entry's
/// expiry, or never expiring.
core::PoolEntrySnapshot draw_entry(util::Rng& rng, sim::SimTime now,
                                   sim::SimTime prev_expiry) {
  core::PoolEntrySnapshot e;
  e.volume = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 2048.0)};
  e.est_expiry = now + rng.uniform(0.1, 30.0);
  switch (rng.uniform_int(0, 7)) {
    case 0: e.est_expiry = now - rng.uniform(0.0, 5.0); break;
    case 1: e.est_expiry = now; break;
    case 2: e.volume.cpu = 0.0; break;
    case 3: e.volume.mem = 0.0; break;
    case 4: e.volume = {0.0, 0.0}; break;
    case 5: e.est_expiry = prev_expiry; break;
    case 6:
      if (rng.bernoulli(0.2)) e.est_expiry = kInf;
      break;
    default: break;
  }
  return e;
}

/// Redraws every view: each node holds one to four entries with
/// probability `p_occupied`, else none.
void draw_views(PoolViews& views, double p_occupied, util::Rng& rng,
                sim::SimTime now) {
  for (size_t n = 0; n < views.statuses.size(); ++n) {
    core::PoolStatus st;
    if (rng.bernoulli(p_occupied)) {
      const auto entries = rng.uniform_int(1, 4);
      sim::SimTime prev = now + 1.0;
      for (int64_t k = 0; k < entries; ++k) {
        st.entries.push_back(draw_entry(rng, now, prev));
        prev = st.entries.back().est_expiry;
      }
    }
    st.taken_at = now - rng.uniform(0.0, 3.0);
    views.set(n, std::move(st));
  }
}

/// An invocation for `shard`: a small, typical, zero or oversized
/// allocation; extra demand on CPU, memory, both, neither or NaN; and a
/// zero, NaN, infinite or ordinary predicted duration, which sets the
/// coverage window.
sim::Invocation draw_invocation(const Fleet& fleet, int shards, int controllers,
                                util::Rng& rng) {
  sim::Invocation inv;
  inv.func = static_cast<sim::FunctionId>(rng.uniform_int(0, 11));
  inv.shard = static_cast<ShardId>(rng.uniform_int(0, shards - 1));
  inv.controller = static_cast<int>(rng.uniform_int(0, controllers - 1));
  const Resources root = fleet.index.max(inv.shard);
  switch (rng.uniform_int(0, 5)) {
    case 0: inv.user_alloc = {0.25, 128.0}; break;
    case 1: inv.user_alloc = {1.0, 512.0}; break;
    case 2: inv.user_alloc = {0.0, 0.0}; break;
    case 3: inv.user_alloc = root; break;
    case 4: inv.user_alloc = {1e6, 1e9}; break;
    default:
      inv.user_alloc = {rng.uniform(0.0, 8.0), rng.uniform(0.0, 8192.0)};
  }
  inv.pred_demand = inv.user_alloc;
  switch (rng.uniform_int(0, 5)) {
    case 0: inv.pred_demand.cpu += rng.uniform(0.1, 4.0); break;
    case 1: inv.pred_demand.mem += rng.uniform(64.0, 2048.0); break;
    case 2:
      inv.pred_demand += Resources{rng.uniform(0.1, 4.0),
                                   rng.uniform(64.0, 2048.0)};
      break;
    case 3: break;  // not accelerable: the sticky hash decides
    case 4: inv.pred_demand.cpu = kNaN; break;
    default:
      inv.pred_demand += Resources{rng.uniform(0.1, 2.0), 0.0};
      inv.pred_demand.mem = kNaN;
  }
  switch (rng.uniform_int(0, 5)) {
    case 0: inv.pred_duration = 0.0; break;
    case 1: inv.pred_duration = kNaN; break;
    case 2: inv.pred_duration = kInf; break;
    default: inv.pred_duration = rng.uniform(0.1, 10.0);
  }
  return inv;
}

/// Fills every slice to a per-round regime (full, nearly full, loose or a
/// mix) and suspects none, some or most nodes. Returns what it reserved,
/// node-major, for release_all.
std::vector<Resources> fill(Fleet& fleet, FleetApi& api, int shards,
                            util::Rng& rng) {
  const auto regime = rng.uniform_int(0, 3);
  std::vector<Resources> held;
  for (sim::Node& node : fleet.nodes) {
    for (ShardId sh = 0; sh < shards; ++sh) {
      const auto mode = regime == 3 ? rng.uniform_int(0, 2) : regime;
      const double f = mode == 0   ? 1.0
                       : mode == 1 ? rng.uniform(0.9, 1.0)
                                   : rng.uniform(0.0, 0.8);
      const Resources r = node.shard_capacity() * f;
      EXPECT_TRUE(node.try_reserve(sh, r));
      held.push_back(r);
    }
  }
  const double p_suspect = static_cast<double>(rng.uniform_int(0, 2)) * 0.45;
  for (size_t k = 0; k < fleet.nodes.size(); ++k)
    api.set_suspected(k, rng.bernoulli(p_suspect));
  return held;
}

void release_all(Fleet& fleet, int shards, const std::vector<Resources>& held) {
  for (size_t k = 0; k < fleet.nodes.size(); ++k)
    for (ShardId sh = 0; sh < shards; ++sh)
      fleet.nodes[k].release(
          sh, held[k * static_cast<size_t>(shards) + static_cast<size_t>(sh)]);
}

/// The pick may score the feasible nodes up to and including the first
/// feasible empty view, then only the occupied views.
long max_scored(const FleetApi& api, const sim::Invocation& inv,
                const util::IdBitset& occupied) {
  long bound = 0;
  for (size_t i = occupied.next(0); i != util::IdBitset::npos;
       i = occupied.next(i + 1))
    ++bound;
  for (const sim::Node& node : api.nodes()) {
    ++bound;
    if (!occupied.test(static_cast<size_t>(node.id())) &&
        core::shard_feasible(node, inv, api))
      break;
  }
  return bound;
}

/// One invocation decided by the pick and by the full scan; both must
/// agree, and so must the salts the sticky hash fallback leaves. Counts in
/// `skipped` the picks that left a feasible view unread.
void compare(core::CoverageScheduler& cov, reference::Coverage& ref,
             FleetApi& api, const ViewProvider& provider,
             const util::IdBitset* occupied, const sim::Invocation& inv,
             long& skipped) {
  const bool counted = inv.accelerable() && !core::no_node_fits(inv, api);
  const long reads_before = provider.reads + api.view_reads;
  sim::Invocation a = inv;
  sim::Invocation b = inv;
  EXPECT_EQ(cov.select(a, api), ref.select(b, api));
  if (counted && occupied != nullptr) {
    // select scored once through the pick, and the reference's full scan
    // read the rest; the sticky hash fallback reads no view.
    const long full_scan = [&] {
      long feasible = 0;
      for (const sim::Node& node : api.nodes())
        feasible += core::shard_feasible(node, inv, api) ? 1 : 0;
      return feasible;
    }();
    const long all_reads = provider.reads + api.view_reads - reads_before;
    const long pick_reads = all_reads - full_scan;
    // The controller path probes node 0's view once to learn that the
    // caches are in use.
    EXPECT_LE(pick_reads, max_scored(api, inv, *occupied) + 1);
    if (pick_reads < full_scan) ++skipped;
  }
  EXPECT_EQ(cov.sticky().salt(inv.func), ref.sticky().salt(inv.func));
}

/// Random clusters at `n` nodes: every shard count, every alpha, both view
/// paths, with and without occupancy bits.
void expect_pick_equals_full_scan(size_t n, int rounds, int picks) {
  for (int shards = 1; shards <= 4; ++shards) {
    for (const double alpha : {0.0, 0.05, 0.5, 0.9, 1.0}) {
      SCOPED_TRACE(std::to_string(n) + " nodes, " + std::to_string(shards) +
                   " shards, alpha " + std::to_string(alpha));
      util::Rng rng(7919 * n + 31 * static_cast<size_t>(shards) +
                    static_cast<size_t>(alpha * 100.0));
      Fleet fleet(n, shards, rng);
      FleetApi api(fleet);
      PoolViews snapshots(n);
      ViewProvider provider;
      provider.views = &snapshots;
      std::vector<PoolViews> caches(4, PoolViews(n));
      core::CoverageScheduler cov(&provider, alpha);
      reference::Coverage ref(&provider, alpha);
      long skipped = 0;
      for (int round = 0; round < rounds; ++round) {
        const std::vector<Resources> held = fill(fleet, api, shards, rng);
        static constexpr double kOccupied[] = {0.0, 0.01, 0.1, 0.5, 1.0};
        const double p_occupied =
            kOccupied[static_cast<size_t>(rng.uniform_int(0, 4))];
        // Path: the policy's snapshots (round % 3 == 0), controller caches
        // (1), or either (2), there half the time without bits: every view
        // then counts as occupied and the pick scans like the reference.
        const int path = round % 3;
        const bool bits = path != 2 || rng.bernoulli(0.5);
        const bool via_caches =
            path == 1 || (path == 2 && rng.bernoulli(0.5));
        const int controllers =
            via_caches ? static_cast<int>(rng.uniform_int(1, 4)) : 1;
        provider.bits = bits;
        if (via_caches) {
          for (int c = 0; c < controllers; ++c)
            draw_views(caches[static_cast<size_t>(c)], p_occupied, rng,
                       api.now());
          api.set_controller_views(&caches, bits);
        } else {
          draw_views(snapshots, p_occupied, rng, api.now());
          api.set_controller_views(nullptr);
        }
        for (int pick = 0; pick < picks; ++pick) {
          const sim::Invocation inv =
              draw_invocation(fleet, shards, controllers, rng);
          const util::IdBitset* occupied =
              !bits ? nullptr
              : via_caches
                  ? &caches[static_cast<size_t>(inv.controller)].occupied
                  : &snapshots.occupied;
          compare(cov, ref, api, provider, occupied, inv, skipped);
        }
        release_all(fleet, shards, held);
      }
      if (n >= 10) {
        EXPECT_GT(skipped, 0);
      }
      for (sim::FunctionId f = 0; f < 12; ++f)
        EXPECT_EQ(cov.sticky().salt(f), ref.sticky().salt(f))
            << "function " << f;
    }
  }
}

TEST(CoverageCandidates, PickEqualsTheFullScanOnOneAndTwoNodes) {
  expect_pick_equals_full_scan(1, 30, 12);
  expect_pick_equals_full_scan(2, 30, 12);
}

TEST(CoverageCandidates, PickEqualsTheFullScanOnTenNodes) {
  expect_pick_equals_full_scan(10, 30, 12);
}

TEST(CoverageCandidates, PickEqualsTheFullScanOnFiftyNodes) {
  expect_pick_equals_full_scan(50, 24, 12);
}

TEST(CoverageCandidates, PickEqualsTheFullScanOnAThousandNodes) {
  expect_pick_equals_full_scan(1000, 6, 10);
}

TEST(CoverageCandidates, AnEmptyViewStopsTheWalkAndOnlyOccupiedViewsFollow) {
  // Nodes 0-2 occupied with nothing live, node 3 empty, node 7 the only
  // one with live supply: the pick scores 0-3, then 7 and 9 (occupied),
  // never the empty views 4-6 and 8, and still lands on node 7.
  util::Rng rng(11);
  Fleet fleet(10, 1, rng);
  FleetApi api(fleet);
  PoolViews views(10);
  ViewProvider provider;
  provider.views = &views;
  for (const size_t n : {0, 1, 2, 9}) {
    core::PoolStatus expired;
    expired.entries.push_back({{2.0, 512.0}, api.now() - 1.0});
    views.set(n, expired);
  }
  core::PoolStatus live;
  live.entries.push_back({{2.0, 512.0}, api.now() + 100.0});
  views.set(7, live);
  core::CoverageScheduler cov(&provider, 0.9);
  reference::Coverage ref(&provider, 0.9);
  sim::Invocation inv;
  inv.user_alloc = {0.25, 64.0};
  inv.pred_demand = {1.25, 64.0};
  inv.pred_duration = 1.0;
  ASSERT_FALSE(core::no_node_fits(inv, api));
  sim::Invocation a = inv;
  EXPECT_EQ(cov.select(a, api), 7);
  EXPECT_EQ(provider.reads, 6);
  EXPECT_EQ(ref.select(a, api), 7);
  // Without bits the pick reads every feasible view, like the full scan.
  provider.bits = false;
  provider.reads = 0;
  EXPECT_EQ(cov.select(a, api), 7);
  EXPECT_EQ(provider.reads, 10);
}

TEST(CoverageCandidates, NaNScoresNeverWinAndTheFloorStillDoes) {
  // An infinite expiry against an infinite window scores NaN on the
  // occupied node 0; the empty node 1 scores the floor and wins, as in the
  // full scan. With node 1 suspected the only feasible score is NaN, so
  // nothing wins and the sticky hash decides: both picks land where a
  // fresh sticky hash does, and advance their salts alike.
  util::Rng rng(5);
  Fleet fleet(3, 1, rng);
  FleetApi api(fleet);
  PoolViews views(3);
  ViewProvider provider;
  provider.views = &views;
  for (const size_t n : {0, 2}) {
    core::PoolStatus st;
    st.entries.push_back({{4.0, 512.0}, kInf});
    views.set(n, st);
  }
  core::CoverageScheduler cov(&provider, 0.9);
  reference::Coverage ref(&provider, 0.9);
  sim::Invocation inv;
  inv.user_alloc = {0.25, 64.0};
  inv.pred_demand = {1.25, 64.0};
  inv.pred_duration = kInf;
  sim::Invocation a = inv;
  EXPECT_EQ(cov.select(a, api), 1);
  EXPECT_EQ(ref.select(a, api), 1);
  api.set_suspected(1, true);
  core::StickyHashState fresh;
  sim::Invocation b = inv;
  const NodeId hashed = fresh.pick(b, api);
  EXPECT_EQ(cov.select(a, api), hashed);
  EXPECT_EQ(ref.select(a, api), hashed);
  EXPECT_EQ(cov.sticky().salt(inv.func), fresh.salt(inv.func));
  EXPECT_EQ(ref.sticky().salt(inv.func), fresh.salt(inv.func));
}

// ---------------------------------------------------------------------------
// Libra wired to each pick, on fuzzer scenarios
// ---------------------------------------------------------------------------

/// The full scan as Libra's scheduling strategy. Its provider reads the
/// policy's snapshots without their occupancy bits.
class ReferenceCoverageStrategy final : public core::SchedulerStrategy {
 public:
  struct Provider final : core::PoolStatusProvider {
    const core::LibraPolicy* policy = nullptr;
    const core::PoolStatus& pool_status(NodeId node) const override {
      return policy->pool_status(node);
    }
  };

  explicit ReferenceCoverageStrategy(std::shared_ptr<Provider> provider)
      : provider_(std::move(provider)), inner_(provider_.get(), 0.9) {}
  std::string name() const override { return "reference-coverage"; }
  NodeId select(sim::Invocation& inv, sim::EngineApi& api) override {
    return inner_.select(inv, api);
  }

 private:
  std::shared_ptr<Provider> provider_;
  reference::Coverage inner_;
};

/// One Libra leg of `sc` (the faulty profiler, the scenario's tenants and
/// quotas, one worker), audited, with the shipped coverage scheduler or the
/// reference scan. Returns the run's digest.
uint64_t run_libra(const chaos::Scenario& sc, bool reference) {
  auto cat = std::make_shared<const sim::FunctionCatalog>(
      gen::synthetic_catalog(sc.gen));
  std::vector<sim::Invocation> trace;
  gen::SyntheticSource source(sc.gen, cat);
  while (source.peek_arrival().has_value()) {
    trace.push_back(source.next());
    trace.back().tenant = static_cast<int>(trace.back().func) % sc.num_tenants;
  }
  const exp::PlatformTuning tuning;
  std::shared_ptr<core::LibraPolicy> policy;
  if (reference) {
    auto provider = std::make_shared<ReferenceCoverageStrategy::Provider>();
    policy = std::make_shared<core::LibraPolicy>(
        core::LibraPolicyConfig{},
        std::make_shared<core::FaultyPredictor>(
            exp::make_libra_profiler(cat, tuning), sc.plan.prediction_faults,
            tuning.seed),
        std::make_shared<ReferenceCoverageStrategy>(provider));
    provider->policy = policy.get();
  } else {
    policy = exp::make_faulty_libra(cat, tuning, sc.plan.prediction_faults,
                                    /*with_trust=*/false);
  }
  for (const auto& [tenant, cap] : sc.tenant_quotas)
    policy->set_tenant_quota(tenant, cap);
  analysis::InvariantAuditor auditor({/*every_n=*/64});
  auditor.attach_policy(policy.get());
  sim::EngineConfig cfg = sc.engine_config();
  cfg.audit_hook = &auditor;
  sim::Engine engine(cfg, policy);
  workload::MaterializedSource materialized(std::move(trace));
  return exp::run_metrics_digest(engine.run(materialized));
}

/// Scenarios [first, first + count) of fuzzer `seed`: equal digests.
void expect_equal_digests(uint64_t seed, int first, int count) {
  chaos::ScenarioFuzzer fuzzer(seed);
  for (int i = 0; i < first + count; ++i) {
    const chaos::Scenario sc = fuzzer.next();
    if (i < first) continue;
    SCOPED_TRACE("fuzzer seed " + std::to_string(seed) + " scenario " +
                 std::to_string(i) + ", " +
                 std::to_string(sc.num_controllers) + " controllers");
    EXPECT_EQ(run_libra(sc, /*reference=*/false),
              run_libra(sc, /*reference=*/true));
  }
}

TEST(CoverageCandidatesFuzz, LibraDigestsEqualTheFullScanSeed3Scenarios0To9) {
  expect_equal_digests(3, 0, 10);
}

TEST(CoverageCandidatesFuzz, LibraDigestsEqualTheFullScanSeed3Scenarios10To19) {
  expect_equal_digests(3, 10, 10);
}

TEST(CoverageCandidatesFuzz, LibraDigestsEqualTheFullScanSeed5Scenarios0To9) {
  expect_equal_digests(5, 0, 10);
}

TEST(CoverageCandidatesFuzz, LibraDigestsEqualTheFullScanSeed5Scenarios10To19) {
  expect_equal_digests(5, 10, 10);
}

}  // namespace
}  // namespace libra
