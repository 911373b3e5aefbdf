// The Libra resource-management policy (§5 + §6): composes a demand
// predictor, a node-selection strategy, per-node harvest resource pools and
// the safeguard daemon. Configuration switches turn the same machinery into
// the paper's baselines and ablations:
//
//   Libra       profiler predictor, coverage scheduler, safeguard on,
//               timeliness-aware pool, preemptive release
//   Libra-NS    safeguard off
//   Libra-NP    moving-window predictor
//   Libra-NSP   both
//   Freyr       EWMA predictor, hash scheduler, timeliness-blind pool,
//               safeguard corrects only the *next* invocation (§9)
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/harvest_pool.h"
#include "core/policy_event.h"
#include "core/pool_status.h"
#include "core/predictor.h"
#include "core/profiler.h"
#include "core/scheduler.h"
#include "core/trust_manager.h"
#include "sim/policy.h"

namespace libra::core {

struct LibraPolicyConfig {
  bool safeguard_enabled = true;
  /// §5.2: trigger when utilization of the shrunken allocation crosses this.
  double safeguard_threshold = 0.8;
  /// Allocation headroom over the predicted peak; real usage fluctuates, so
  /// harvesting down to the exact prediction would trip the safeguard on
  /// every accurate prediction.
  double harvest_headroom = 0.3;
  /// Never harvest memory below this floor (OOM mitigation #1, §5.1).
  double min_mem_floor = 128.0;
  /// Never harvest CPU below this many cores.
  static constexpr double min_cpu_floor = 0.5;
  /// Timeliness-aware pool ordering (§5.1 priority); false models Freyr.
  bool timeliness_aware_pool = true;
  /// Memory grants only from entries outliving the borrower's predicted
  /// finish (revoked memory mid-run is an OOM risk); false models Freyr.
  bool mem_expiry_filter = true;
  /// Preemptive release on safeguard trigger; false models Freyr, which only
  /// restores the user allocation for the NEXT invocation of the function.
  bool preemptive_release_on_safeguard = true;
  /// OOM mitigation #3: stop harvesting memory from a function after this
  /// many memory-safeguard strikes.
  static constexpr int max_mem_safeguard_strikes = 3;
  /// Weight of CPU coverage in the weighted demand coverage (§6.2).
  double coverage_alpha = 0.9;
  /// Runtime backfill: on every health ping, running under-provisioned
  /// invocations top up from newly harvested pool inventory (docker-update
  /// makes mid-run grants cheap; keeping harvested resources busy is what
  /// Fig. 10's idle-time metric rewards). Freyr has no such mechanism.
  bool runtime_backfill = true;
  /// Misprediction-resilience layer: per-function trust circuit breaker and
  /// adaptive harvest margins (src/core/trust_manager). When enabled,
  ///  - quarantined (OPEN) functions are never harvested and are served
  ///    padded to their full user allocation,
  ///  - HALF_OPEN functions fall back to the §4.3.2 histogram path,
  ///  - the static harvest_headroom is replaced by a per-function margin
  ///    tracking the p95 relative under-prediction of the live model.
  bool trust_enabled = false;
  /// Per-tenant caps on concurrently borrowed pool volume, applied to every
  /// per-node pool at creation (enforced by HarvestResourcePool::get and
  /// audited after every pool mutation). Empty = no quotas, single-tenant
  /// behaviour unchanged.
  std::map<int, sim::Resources> tenant_quotas;
};

class LibraPolicy final : public sim::Policy, public PoolStatusProvider {
 public:
  LibraPolicy(LibraPolicyConfig cfg, PredictorPtr predictor,
              SchedulerPtr scheduler);

  /// Convenience: wires a CoverageScheduler against this policy's pools.
  static std::shared_ptr<LibraPolicy> with_coverage_scheduler(
      LibraPolicyConfig cfg, PredictorPtr predictor);

  std::string name() const override;
  void predict(sim::Invocation& inv) override;
  sim::NodeId select_node(sim::Invocation& inv, sim::EngineApi& api) override;
  sim::AllocationPlan plan_allocation(sim::Invocation& inv,
                                      sim::EngineApi& api) override;
  bool wants_monitor(const sim::Invocation& inv) const override;
  void on_monitor(sim::Invocation& inv, sim::EngineApi& api) override;
  void on_complete(sim::Invocation& inv, sim::EngineApi& api) override;
  void on_oom(sim::Invocation& inv, sim::EngineApi& api) override;
  void on_evicted(sim::Invocation& inv, sim::EngineApi& api) override;
  void on_health_ping(sim::NodeId node, sim::EngineApi& api) override;
  void on_node_down(sim::NodeId node, sim::EngineApi& api) override;
  void on_node_up(sim::NodeId node, sim::EngineApi& api) override;
  void on_drain_notice(sim::NodeId node, sim::SimTime deadline,
                       sim::EngineApi& api) override;
  /// Terminal-record hook: drops per-invocation bookkeeping (raw_pred_ stash,
  /// backfill candidacy) so the maps stay bounded by the live-invocation
  /// count even on loss paths that never reach on_complete/on_evicted.
  void on_finalized(const sim::Invocation& inv) override;
  sim::PolicyStats stats() const override;

  // PoolStatusProvider: piggybacked (possibly stale) snapshot, by reference
  // into snapshots_ (valid until the node's next ping refresh), and the
  // nodes whose snapshot holds an entry.
  const PoolStatus& pool_status(sim::NodeId node) const override;
  const util::IdBitset* occupied_views() const override { return &occupied_; }

  /// Test hook modelling a snapshot write that forgot its occupancy bit:
  /// flips bit `node` without touching the snapshot. Audit tests call it
  /// from an audit hook.
  void flip_occupied_for_audit_test(sim::NodeId node) {
    const auto n = static_cast<size_t>(node);
    occupied_.set(n, !occupied_.test(n));
  }

  /// Direct pool access for tests and white-box benches.
  HarvestResourcePool& pool(sim::NodeId node) { return pool_for(node); }
  const LibraPolicyConfig& config() const { return cfg_; }

  /// Registers (or replaces) a per-tenant borrow cap after construction,
  /// propagating it to every already-created pool. Call before the run (the
  /// chaos oracle configures quotas on make_platform-built policies here).
  void set_tenant_quota(int tenant, const sim::Resources& cap);
  DemandPredictor& predictor() { return *predictor_; }
  /// Trust circuit breaker; nullptr when cfg.trust_enabled is false. The
  /// invariant auditor uses it to check that no pool entry is sourced from a
  /// quarantined function.
  const TrustManager* trust_manager() const { return trust_.get(); }
  /// Mutable access for tests seeding trust-state violations.
  TrustManager* trust_manager_for_test() { return trust_.get(); }

  /// Registers an observer on every per-node pool, current and future (the
  /// invariant auditor). Non-owning; install before the run starts.
  void set_pool_listener(PoolEventListener* listener);

  /// Registers the observer notified on safeguard triggers and trust-state
  /// transitions (the observability session). Non-owning; install before the
  /// run starts.
  void set_policy_listener(PolicyEventListener* listener) {
    policy_listener_ = listener;
  }

  /// The node-indexed pool table for the invariant auditor's cross-layer
  /// sweeps (grant liveness, down-node emptiness): index == node id, null
  /// for nodes whose pool was never touched. Index order IS ascending node
  /// order, so auditors walk it in place.
  const std::vector<std::unique_ptr<HarvestResourcePool>>& pools_for_audit()
      const {
    return pools_;
  }

  /// Calls `fn(id)` for every invocation stashed in the raw-prediction
  /// bookkeeping, in hash order. The invariant auditor asserts each one is
  /// still alive — the boundedness check that caught the pre-§5l leak on
  /// loss paths. Callers must not depend on the order.
  template <typename Fn>
  void for_each_raw_pred_id(Fn&& fn) const {
    // LIBRA_LINT_ALLOW(unordered-iteration): every id gets the same order-independent audit check; nothing accumulates across ids
    for (const auto& entry : raw_pred_) fn(entry.first);
  }
  /// True while `id` holds a raw-prediction stash entry (O(1) lookup for
  /// the auditor's recycle check).
  bool raw_pred_stashed(sim::InvocationId id) const {
    return raw_pred_.count(id) != 0;
  }

 private:
  /// Predicted execution time if the invocation runs with `alloc`.
  double predicted_exec_time(const sim::Invocation& inv,
                             const sim::Resources& alloc,
                             sim::EngineApi& api) const;
  /// Pulls back everything harvested from `inv` (pool idle volume and
  /// grants lent to borrowers) and restores its allocation.
  void preemptive_release(sim::Invocation& inv, sim::EngineApi& api,
                          bool restore_allocation);
  /// The shared tail of on_complete and on_evicted: pulls back what was
  /// harvested from `inv`, returns what it still borrows to the pool and
  /// drops its backfill candidacy.
  void settle(sim::Invocation& inv, sim::EngineApi& api);
  /// The shared crash / drain-notice pull-back: empties `node`'s pool
  /// (idle entries out, every grant revoked) and clears its backfill list.
  void pull_back_pool(sim::NodeId node, sim::EngineApi& api);
  /// Tops up running under-provisioned invocations from the node's pool.
  void backfill_node(sim::NodeId node, sim::EngineApi& api);
  /// A demotion just moved `func` to the quarantine tier: pull back every
  /// live harvest sourced from its running invocations so the pool holds no
  /// inventory from a function the platform no longer trusts.
  void enforce_quarantine(sim::FunctionId func, sim::EngineApi& api);
  /// Single creation point for per-node pools: lazily constructs the pool
  /// and attaches the registered event listener.
  HarvestResourcePool& pool_for(sim::NodeId node);
  /// Replaces the node's piggybacked snapshot and its occupancy bit: every
  /// snapshot write goes through here.
  void set_snapshot(sim::NodeId node, PoolStatus status);
  /// Fires a PolicyEvent at the registered listener (no-op when unset).
  void emit_policy_event(PolicyEventKind kind, const sim::Invocation& inv,
                         sim::SimTime now);
  /// Sorted-unique insertion / removal in the per-node backfill candidate
  /// list (flat vectors, §5l). Node indices grow on demand.
  void add_backfill_candidate(sim::NodeId node, sim::InvocationId id);
  void drop_backfill_candidate(sim::NodeId node, sim::InvocationId id);

  LibraPolicyConfig cfg_;
  PredictorPtr predictor_;
  SchedulerPtr scheduler_;
  PoolEventListener* pool_listener_ = nullptr;
  PolicyEventListener* policy_listener_ = nullptr;
  /// Per-node harvest pools, indexed by node id (§5l flat layout; pools are
  /// non-movable — util::Mutex member — hence the unique_ptr slots). Index
  /// order IS ascending node order, so every iteration below is
  /// deterministic without a sort.
  std::vector<std::unique_ptr<HarvestResourcePool>> pools_;
  /// Piggybacked pool-status snapshots, indexed by node id. A never-pinged
  /// node's default-constructed entry equals the empty status.
  std::vector<PoolStatus> snapshots_;
  /// Bit n set exactly while snapshots_[n] holds an entry (set_snapshot).
  util::IdBitset occupied_;
  /// The two safeguard tables below are indexed by function id (catalog
  /// ids are dense) and grow on the first write for a larger id, like the
  /// sticky-hash salt table. Throws std::out_of_range on a negative id.
  static size_t function_index(sim::FunctionId func);
  /// Freyr mode: 1 for a function whose next invocation must run
  /// un-harvested.
  std::vector<uint8_t> suppress_next_;
  /// Profiler hook for per-function memory-strike mitigation (may be null
  /// when the predictor is not the Libra profiler).
  Profiler* profiler_hook_ = nullptr;
  /// Memory safeguard triggers plus OOM kills, per function.
  std::vector<int> mem_strikes_;
  void add_mem_strike(sim::FunctionId func);
  /// Trust circuit breaker + adaptive margins; null unless trust_enabled.
  std::unique_ptr<TrustManager> trust_;
  /// Raw model predictions stashed before quarantine/fallback padding so
  /// on_complete scores the MODEL (enabling re-promotion), not the padded
  /// serving decision. Erased at completion and, for every loss path that
  /// never completes, by on_finalized — the boundedness guarantee the
  /// invariant auditor checks.
  std::unordered_map<sim::InvocationId, sim::Resources> raw_pred_;
  /// Running invocations still short of their predicted demand: per node, a
  /// sorted-unique id vector (flat §5l layout — binary-search membership,
  /// in-order walk for free).
  std::vector<std::vector<sim::InvocationId>> backfill_candidates_;
  mutable sim::PolicyStats stats_;
  sim::SimTime last_seen_now_ = 0.0;
};

}  // namespace libra::core
