// The seam between the generic cluster mechanics (engine) and a resource
// management platform (Default OpenWhisk, Freyr, Libra and its ablations).
// The engine drives the invocation lifecycle and calls into the Policy at the
// five workflow steps of Fig. 3; the policy manipulates running invocations
// only through the EngineApi (the docker-update stand-in).
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sim/execution_model.h"
#include "sim/invocation.h"
#include "sim/node.h"
#include "sim/types.h"
#include "util/id_bitset.h"

namespace libra::core {
struct PoolStatus;
}  // namespace libra::core

namespace libra::sim {

/// Engine operations available to policies.
class EngineApi {
 public:
  virtual ~EngineApi() = default;

  virtual SimTime now() const = 0;
  virtual const std::vector<Node>& nodes() const = 0;
  virtual Node& node(NodeId id) = 0;
  virtual Invocation& invocation(InvocationId id) = 0;
  virtual bool invocation_alive(InvocationId id) const = 0;
  virtual const ExecutionModel& exec_model() const = 0;

  /// Changes the effective allocation of a running invocation in real time
  /// (docker-update §7). The engine folds progress, recomputes the completion
  /// event and refreshes utilization accounting. The caller is responsible
  /// for keeping inv.harvested_out / inv.borrowed_in consistent first.
  virtual void update_effective(InvocationId id, const Resources& effective) = 0;

  /// What a cgroup monitor would report for a running invocation right now:
  /// busy CPU cores and resident memory (both capped by the allocation).
  virtual Resources observed_usage(InvocationId id) const = 0;

  /// Folds the invocation's progress and resource-time integrals up to the
  /// current instant. Policies MUST call this before mutating an
  /// invocation's harvested_out / borrowed_in fields so the elapsed
  /// interval is attributed to the old allocation split.
  virtual void sync_accounting(InvocationId id) = 0;

  /// The peak utilization observed over the invocation's lifetime — what the
  /// platform "collects after execution completes" (Fig. 3 step 5) to update
  /// profiling models. Capped by the largest allocation the container had.
  virtual Resources observed_peak(InvocationId id) const = 0;

  /// Controller-side health view (§6.4): true when the node has missed
  /// enough consecutive health pings that the controller suspects it is
  /// down. Deliberately stale — it lags a real crash by up to
  /// EngineConfig::suspect_after_missed_pings ping intervals, and dropped
  /// pings can make a healthy node look dead. Schedulers must use this, not
  /// ground truth.
  virtual bool node_suspected_down(NodeId node) const {
    (void)node;
    return false;
  }

  /// An upper bound, per axis, on every node's free slice of `shard`
  /// (Node::shard_free): the engine's capacity index (DESIGN.md §5l). An
  /// allocation that does not fit it fits no node, so a scheduler can answer
  /// "no node fits" without a scan. The default, +inf on both axes, proves
  /// nothing: an api without an index keeps the full scan.
  virtual Resources max_shard_free(ShardId shard) const {
    (void)shard;
    const double inf = std::numeric_limits<double>::infinity();
    return {inf, inf};
  }

  /// Invocations currently holding a reservation on `node` (live, placed),
  /// in ascending id order — a reference into the engine's per-node list,
  /// valid until the next placement or release. The invariant auditor sums
  /// their user allocations (plus probe extras) against the node's
  /// allocated totals in place.
  virtual const std::vector<InvocationId>& placed_on(NodeId node) const {
    (void)node;
    static const std::vector<InvocationId> kNone;
    return kNone;
  }

  /// Nodes whose reservations, running count, up flag or placed list changed
  /// since the previous engine event reached the audit hook, each listed
  /// once, in first-touch order. Read-only: the engine clears it after the
  /// hook returns. The invariant auditor re-checks exactly these nodes.
  virtual const std::vector<NodeId>& touched_nodes() const = 0;

  /// Invocations finalized (InvocationLifecycle::finalize_record) since the
  /// previous engine event reached the audit hook, in finalize order. Every
  /// terminal path funnels through finalize_record, so the auditor checks
  /// each id's bookkeeping here instead of walking the whole stash.
  virtual const std::vector<InvocationId>& finalized_ids() const = 0;

  /// Every placed invocation, in ascending id order: a fresh sorted copy of
  /// the per-node lists, for cold paths (quarantine enforcement).
  std::vector<InvocationId> placed_invocations() const {
    std::vector<InvocationId> out;
    for (const Node& n : nodes()) {
      const auto& ids = placed_on(n.id());
      out.insert(out.end(), ids.begin(), ids.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The owning controller's cached pool-status view of `node` (src/sim/ctrl,
  /// DESIGN.md §5k), or nullptr when the control plane is transparent (one
  /// controller, pass-through gossip) — schedulers then fall back to the
  /// policy's own piggybacked snapshot, the legacy single-view path. Either
  /// every node has a cached view or none has. The returned view may be
  /// staler than the policy's snapshot (periodic or lossy gossip);
  /// commit-time validation against ground truth makes that safe. Stable for
  /// the duration of one decision batch.
  virtual const core::PoolStatus* controller_pool_view(NodeId node,
                                                       int controller) const {
    (void)node;
    (void)controller;
    return nullptr;
  }

  /// The nodes whose view in `controller`'s cache holds at least one entry
  /// (bit n for controller_pool_view(n, controller)), or nullptr when that
  /// controller keeps no cache — or keeps no such set, in which case a
  /// coverage pick counts every cached view as occupied. Stable for the
  /// duration of one decision batch.
  virtual const util::IdBitset* controller_occupied_views(
      int controller) const {
    (void)controller;
    return nullptr;
  }
};

/// Aggregate counters a policy reports at the end of a run (consumed by the
/// Fig. 8/10/14 benches).
struct PolicyStats {
  double pool_idle_cpu_core_seconds = 0.0;  // Fig. 10(b) integrand
  double pool_idle_mem_mb_seconds = 0.0;    // Fig. 10(c) integrand
  long safeguard_triggers = 0;
  long harvest_puts = 0;
  long borrow_gets = 0;
  long pool_revocations = 0;
  long reharvests = 0;

  // ---- Trust circuit breaker (misprediction-resilience layer) ----
  long trust_demotions = 0;       // CLOSED/HALF_OPEN -> OPEN transitions
  long trust_promotions = 0;      // HALF_OPEN -> CLOSED re-promotions
  long quarantined_functions = 0; // functions quarantined at run end
  /// Adaptive harvest margin actually applied per harvesting decision (the
  /// margin histogram of the resilience report).
  std::vector<double> harvest_margin_samples;
};

/// Result of the Step-5 allocation decision made when an invocation is
/// admitted to a node.
struct AllocationPlan {
  /// Initial effective allocation (user_alloc - harvested + borrowed). The
  /// node reservation is always the user-defined allocation; the plan only
  /// redistributes slack inside reservations.
  Resources effective;
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Step 3 — profiling. Fills inv.pred_demand / pred_duration /
  /// pred_size_related / first_seen.
  virtual void predict(Invocation& inv) = 0;

  /// Optional speculative form of the Step-3 prediction, used by the
  /// controller's prediction barrier (§5l). Called from worker threads
  /// concurrently with other same-instant predictions, so it must be PURE:
  /// no policy or predictor state may be mutated, and the returned memo must
  /// equal exactly what predict() would write given the current state.
  /// Return nullopt whenever predict() would mutate state (first-seen
  /// training, suppression bookkeeping, trust stashes) — the barrier then
  /// calls predict() serially at the invocation's commit position, which is
  /// always correct.
  virtual std::optional<PredictionMemo> speculate_predict(
      const Invocation& inv) const {
    (void)inv;
    return std::nullopt;
  }

  /// Applies a successfully speculated prediction at the serial commit
  /// position. The default writes the memo's fields — exactly the Invocation
  /// writes of a pure predict(). Policies whose predict() has additional
  /// per-call side effects must decline speculation or replicate them here.
  virtual void commit_predict(Invocation& inv, const PredictionMemo& memo) {
    inv.pred_demand = memo.pred_demand;
    inv.pred_duration = memo.pred_duration;
    inv.pred_size_related = memo.pred_size_related;
    inv.first_seen = memo.first_seen;
    if (memo.profiling_probe) inv.profiling_probe = true;
  }

  /// Step 4 — scheduling. Returns a node whose shard slice can hold the
  /// user-defined allocation, or kNoNode to park the invocation until
  /// capacity frees up.
  virtual NodeId select_node(Invocation& inv, EngineApi& api) = 0;

  /// Optional speculative form of the Step-4 decision, used by the parallel
  /// sharded controller (§6.4). Called from worker threads on a frozen
  /// pre-batch view of the cluster, concurrently with other shards'
  /// speculations, so it must be PURE: no policy or scheduler state may be
  /// mutated, and the decision must depend only on state that no same-batch
  /// commit can change (the invocation's own shard slice, ping-time pool
  /// snapshots, the ping-based health view). Return nullopt whenever the
  /// decision is order-dependent — the controller then runs select_node
  /// serially at the invocation's commit position, which is always correct.
  /// When a node IS returned, the controller commits it via commit_select
  /// instead of calling select_node.
  virtual std::optional<NodeId> speculate_select(const Invocation& inv,
                                                 const EngineApi& api) const {
    (void)inv;
    (void)api;
    return std::nullopt;
  }

  /// Applies select_node's side effects for a decision that was speculated
  /// successfully (speculate_select returned a node). Runs serially at the
  /// commit position. Policies whose select_node mutates state on EVERY call
  /// (not just on the paths speculate_select declines) must replicate that
  /// here, or the parallel controller diverges from the serial engine.
  virtual void commit_select(Invocation& inv, EngineApi& api) {
    (void)inv;
    (void)api;
  }

  /// Step 5 — harvesting / acceleration, called right after the reservation
  /// succeeded on inv.node. The policy updates its harvest pools and the
  /// invocation's harvested_out / borrowed_in fields.
  virtual AllocationPlan plan_allocation(Invocation& inv, EngineApi& api) = 0;

  /// Whether the engine should run the periodic safeguard monitor for this
  /// invocation.
  virtual bool wants_monitor(const Invocation& inv) const {
    (void)inv;
    return false;
  }

  /// Safeguard monitor tick (every monitor_interval while running).
  virtual void on_monitor(Invocation& inv, EngineApi& api) {
    (void)inv;
    (void)api;
  }

  /// Invocation completed: preemptive release of resources harvested from
  /// it, re-harvest of grants it still holds, model updates.
  virtual void on_complete(Invocation& inv, EngineApi& api) {
    (void)inv;
    (void)api;
  }

  /// Container ran out of memory. The policy must pull back everything
  /// harvested from the invocation (the engine then restarts it with its
  /// user allocation plus whatever it still borrows).
  virtual void on_oom(Invocation& inv, EngineApi& api) {
    (void)inv;
    (void)api;
  }

  /// The engine is tearing the invocation off a LIVE node (OOM graceful
  /// degradation: the kill is followed by a backoff re-dispatch instead of an
  /// in-place restart). Unlike on_node_down — where the whole per-node pool
  /// dies — the policy must reconcile only this invocation: release
  /// everything still harvested from it AND return everything it borrows to
  /// the pool, because both the pool and its other borrowers live on.
  virtual void on_evicted(Invocation& inv, EngineApi& api) {
    (void)inv;
    (void)api;
  }

  /// Node health ping (§6.4): policies refresh piggybacked pool-status
  /// snapshots here so schedulers work from realistic, slightly stale data.
  /// Not called while the node is down or when fault injection drops the
  /// ping — the snapshot then goes stale, which is the point.
  virtual void on_health_ping(NodeId node, EngineApi& api) {
    (void)node;
    (void)api;
  }

  /// Node crashed (fault injection). Called BEFORE the engine reaps the
  /// node's invocations, so policies owning per-node state can uphold the
  /// harvest-safety invariant under churn: preemptively release every pool
  /// entry and revoke every outstanding grant sourced from or borrowed by
  /// invocations on the dead node.
  virtual void on_node_down(NodeId node, EngineApi& api) {
    (void)node;
    (void)api;
  }

  /// Node recovered from a crash. It comes back empty: no running
  /// invocations, no warm containers, an empty harvest pool.
  virtual void on_node_up(NodeId node, EngineApi& api) {
    (void)node;
    (void)api;
  }

  /// The invocation's record was finalized (completion, terminal loss or the
  /// end-of-run straggler sweep) and may be recycled afterwards. Policies
  /// holding per-invocation bookkeeping MUST drop it here — this is the only
  /// hook guaranteed to fire exactly once on every terminal path, which is
  /// what keeps bookkeeping maps bounded by the live-invocation count.
  virtual void on_finalized(const Invocation& inv) { (void)inv; }

  /// Spot reclamation warning (scenario matrix): the node will crash at
  /// `deadline` and the platform has until then to react. Called BEFORE the
  /// engine drain-migrates the node's invocations, so a harvesting policy
  /// can pull its pool inventory back gracefully — release every entry and
  /// revoke every outstanding grant — instead of losing the pool when the
  /// crash lands. The default no-op models a platform without the hook.
  virtual void on_drain_notice(NodeId node, SimTime deadline, EngineApi& api) {
    (void)node;
    (void)deadline;
    (void)api;
  }

  virtual PolicyStats stats() const { return {}; }
};

}  // namespace libra::sim
