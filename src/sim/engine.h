// Discrete-event serverless cluster engine. Drives the five-step workflow of
// Fig. 3 for every invocation in a trace against a pluggable Policy:
//
//   arrival -> frontend -> profiler (Policy::predict) -> shard queue ->
//   scheduling decision (Policy::select_node) ->
//   reservation -> harvest/accelerate (Policy::plan_allocation) ->
//   container start -> execution (piecewise progress, monitor ticks, OOM) ->
//   completion (Policy::on_complete, pending retries, model updates)
//
// The engine itself is event-loop glue over four layers (DESIGN.md §5g):
//   ClusterState        — nodes, reservations, health view, usage series;
//   InvocationLifecycle — the per-invocation state machine;
//   ShardedController   — per-shard queues and the barrier-batched
//                         scheduling decisions of §6.4;
//   ctrl::ControlPlane  — front-end controllers and their pool-view caches.
// Each layer holds an Engine& and reaches the clock, the policy, the shared
// metrics and the other layers through Engine's private accessors; the
// layers are friends, so none of that widens Engine's public surface.
#pragma once

#include <memory>
#include <vector>

#include "gen/trace_source.h"
#include "sim/cluster_state.h"
#include "sim/ctrl/control_plane.h"
#include "sim/engine_config.h"
#include "sim/event_queue.h"
#include "sim/execution_model.h"
#include "sim/fault/fault_injector.h"
#include "sim/invocation.h"
#include "sim/lifecycle.h"
#include "sim/metrics.h"
#include "sim/policy.h"
#include "sim/sharded_controller.h"
#include "sim/types.h"
#include "util/dense_id_map.h"

namespace libra::sim {

/// The engine's invocation store: a flat, generation-checked slab keyed by
/// id (DESIGN.md §5l) — find() is two array loads, recycled slots come back
/// through a free list, and live-record iteration walks contiguous memory.
using InvocationStore = util::DenseIdMap<InvocationId, Invocation>;

class Engine final : public EngineApi {
 public:
  Engine(EngineConfig cfg, std::shared_ptr<Policy> policy);

  /// Runs the stream to completion and returns the collected metrics. The
  /// one run path: invocations are pulled from `source` just in time (an
  /// arrival is admitted once it is due no later than the next pending
  /// event), so live memory tracks the in-flight count instead of the stream
  /// length. A pre-built trace goes through workload::MaterializedSource.
  /// Arrivals enter through the event queue's arrival lane, which wins every
  /// same-time tie — the order the pinned golden digests were captured
  /// under. Throws std::invalid_argument on a negative or NaN arrival, an
  /// arrival earlier than its predecessor, or a duplicate id.
  RunMetrics run(gen::TraceSource& source);

  // ---- EngineApi ----
  SimTime now() const override { return queue_.now(); }
  const std::vector<Node>& nodes() const override { return cluster_->nodes(); }
  Node& node(NodeId id) override { return cluster_->node(id); }
  Invocation& invocation(InvocationId id) override;
  bool invocation_alive(InvocationId id) const override;
  const ExecutionModel& exec_model() const override { return exec_; }
  void update_effective(InvocationId id, const Resources& effective) override {
    lifecycle_->update_effective(id, effective);
  }
  void sync_accounting(InvocationId id) override {
    lifecycle_->sync_accounting(id);
  }
  Resources observed_usage(InvocationId id) const override {
    return lifecycle_->observed_usage(id);
  }
  Resources observed_peak(InvocationId id) const override {
    return lifecycle_->observed_peak(id);
  }
  bool node_suspected_down(NodeId id) const override {
    return cluster_->node_suspected_down(id);
  }
  Resources max_shard_free(ShardId shard) const override {
    return cluster_->max_shard_free(shard);
  }
  const std::vector<InvocationId>& placed_on(NodeId node) const override {
    return cluster_->placed_on(node);
  }
  const core::PoolStatus* controller_pool_view(NodeId node,
                                               int controller) const override {
    return ctrlplane_->view(node, controller);
  }
  const util::IdBitset* controller_occupied_views(
      int controller) const override {
    return ctrlplane_->occupied(controller);
  }
  const std::vector<NodeId>& touched_nodes() const override {
    return cluster_->touched_nodes();
  }
  const std::vector<InvocationId>& finalized_ids() const override {
    return lifecycle_->finalized_ids();
  }

  /// White-box access for the control-plane tests (read-only).
  const ctrl::ControlPlane& control_plane() const { return *ctrlplane_; }

  /// Test hook modelling a terminal path that skips teardown: loses the
  /// invocation in place, leaving its reservation, placed-list entry and
  /// pool entries behind. Audit tests call it from an audit hook.
  void lose_for_audit_test(InvocationId id) {
    lifecycle_->lose_invocation(invocation(id));
  }
  /// Test hook modelling a reservation change whose capacity-index write
  /// went wrong: overwrites `node`'s leaf of `shard` with `free` and marks
  /// the node touched. Audit tests call it from an audit hook.
  void stale_capacity_for_audit_test(NodeId node, ShardId shard,
                                     const Resources& free) {
    cluster_->stale_capacity_for_audit_test(node, shard, free);
  }
  /// Test hook modelling a gossip write that forgot its occupancy bit:
  /// flips bit `node` of the controller's cache set without touching the
  /// view. Audit tests call it from an audit hook.
  void flip_controller_occupied_for_audit_test(int controller, NodeId node) {
    ctrlplane_->flip_occupied_for_audit_test(controller, node);
  }

 private:
  // ---- The layers' view of the engine ----
  friend class ClusterState;
  friend class InvocationLifecycle;
  friend class ShardedController;
  friend class ctrl::ControlPlane;

  EventQueue& queue() { return queue_; }
  const EngineConfig& config() const { return cfg_; }
  Policy& policy() { return *policy_; }
  EngineApi& api() { return *this; }
  RunMetrics& metrics() { return metrics_; }
  ClusterState& cluster() { return *cluster_; }
  InvocationLifecycle& lifecycle() { return *lifecycle_; }
  ShardedController& controller() { return *controller_; }
  ctrl::ControlPlane& control() { return *ctrlplane_; }
  /// Non-throwing lookup: nullptr when the id is unknown — e.g. recycled
  /// after its terminal event in a streaming run. Epoch/generation-guarded
  /// continuations use this: a miss means the guard would have rejected the
  /// event anyway, so they return silently.
  Invocation* find_invocation(InvocationId id) { return invocations_.find(id); }
  /// Marks a TERMINAL invocation's record for free-list recycling. Deferred:
  /// drain_recycle() runs only between events, so `Invocation&` references
  /// held by the current callback chain stay valid. No-op unless
  /// EngineConfig::recycle_records is on.
  void request_recycle(InvocationId id) {
    if (cfg_.recycle_records) pending_recycle_.push_back(id);
  }
  /// True while fault injection is configured for this run (scripted plan or
  /// probabilistic profile). Gates the failure-handling paths so failure-free
  /// runs keep the original semantics.
  bool fault_active() const { return fault_ && fault_->active(); }
  /// The injector for this run; never null after run() starts when
  /// fault_active() is true.
  fault::FaultInjector* fault() { return fault_.get(); }
  /// Marks one invocation terminal (completed or lost). The run ends when
  /// every traced invocation is terminal.
  void mark_terminal() { ++completed_; }
  /// True while at least one traced invocation is not yet terminal.
  bool run_live() const { return !source_done_ || completed_ < total_; }
  /// Forwards an engine-level event to the invariant auditor (no-op when no
  /// audit hook is configured), then clears the touched-node and finalized
  /// marks the hook consumed.
  void notify_audit(EngineEventKind kind, InvocationId inv = kNoInvocation,
                    NodeId node_id = kNoNode);

  void on_arrival(InvocationId id);
  void on_profiled(InvocationId id);
  /// Spot reclamation warnings: for every `spot` outage in the fault plan,
  /// schedules a cluster drain notice EngineConfig::spot_drain_notice seconds
  /// before the scripted crash (no-op when the notice lead time is 0).
  void schedule_drain_notices();
  /// Inserts one admitted invocation (reusing a recycled store slot when
  /// available) and schedules its arrival on the arrival lane.
  void admit(Invocation&& inv);
  /// Returns terminal records queued by request_recycle() to the store's
  /// slot free list. Only called between events, never mid-callback.
  void drain_recycle();
  /// Common run epilogue: straggler sweep, the "run_end" audit event (the
  /// auditor's final full sweep), incomplete accounting, cold/warm totals,
  /// policy stats.
  RunMetrics finish_run();

  EngineConfig cfg_;
  std::shared_ptr<Policy> policy_;
  ExecutionModel exec_;
  EventQueue queue_;
  /// Flat slot-slab record store (util::DenseIdMap): recycled terminal
  /// records return their slot (and the record's heap buffers) to the free
  /// list; find() never hashes.
  InvocationStore invocations_;
  std::vector<InvocationId> pending_recycle_;
  /// False only while the run still has unadmitted arrivals; keeps
  /// run_live() (and thus the health-ping loop) honest about future work.
  bool source_done_ = true;

  std::unique_ptr<fault::FaultInjector> fault_;  // built in run()
  long audit_event_id_ = 0;

  RunMetrics metrics_;
  size_t completed_ = 0;
  size_t total_ = 0;

  // The layers (constructed after everything they reach through the
  // accessors above; declaration order matters).
  std::unique_ptr<ClusterState> cluster_;
  std::unique_ptr<InvocationLifecycle> lifecycle_;
  std::unique_ptr<ShardedController> controller_;
  std::unique_ptr<ctrl::ControlPlane> ctrlplane_;
};

}  // namespace libra::sim
