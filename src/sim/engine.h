// Discrete-event serverless cluster engine. Drives the five-step workflow of
// Fig. 3 for every invocation in a trace against a pluggable Policy:
//
//   arrival -> frontend -> profiler (Policy::predict) -> shard queue ->
//   scheduling decision (Policy::select_node / speculate_select) ->
//   reservation -> harvest/accelerate (Policy::plan_allocation) ->
//   container start -> execution (piecewise progress, monitor ticks, OOM) ->
//   completion (Policy::on_complete, pending retries, model updates)
//
// The engine itself is event-loop glue over three layers (see engine_host.h):
//   ClusterState        — nodes, reservations, health view, usage series;
//   InvocationLifecycle — the per-invocation state machine;
//   ShardedController   — per-shard queues and the barrier-batched,
//                         optionally parallel scheduling decisions of §6.4.
#pragma once

#include <memory>
#include <vector>

#include "gen/trace_source.h"
#include "sim/cluster_state.h"
#include "sim/ctrl/control_plane.h"
#include "sim/engine_config.h"
#include "sim/engine_host.h"
#include "sim/event_queue.h"
#include "sim/execution_model.h"
#include "sim/fault/fault_injector.h"
#include "sim/invocation.h"
#include "sim/lifecycle.h"
#include "sim/metrics.h"
#include "sim/policy.h"
#include "sim/sharded_controller.h"
#include "sim/types.h"

namespace libra::sim {

class Engine final : public EngineApi, private EngineHost {
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
  const std::vector<InvocationId>& placed_on(NodeId node) const override {
    return cluster_->placed_on(node);
  }
  const core::PoolStatus* controller_pool_view(NodeId node,
                                               int controller) const override {
    return ctrlplane_->view(node, controller);
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

 private:
  // ---- EngineHost (the layers' view of the engine) ----
  EventQueue& queue() override { return queue_; }
  const EngineConfig& config() const override { return cfg_; }
  Policy& policy() override { return *policy_; }
  EngineApi& api() override { return *this; }
  RunMetrics& metrics() override { return metrics_; }
  ClusterState& cluster() override { return *cluster_; }
  InvocationLifecycle& lifecycle() override { return *lifecycle_; }
  ShardedController& controller() override { return *controller_; }
  ctrl::ControlPlane& control() override { return *ctrlplane_; }
  // Invocation& invocation(InvocationId) — the public EngineApi override
  // above also overrides the identical EngineHost virtual.
  Invocation* find_invocation(InvocationId id) override {
    return invocations_.find(id);
  }
  InvocationStore& invocations_store() override { return invocations_; }
  void request_recycle(InvocationId id) override {
    if (cfg_.recycle_records) pending_recycle_.push_back(id);
  }
  bool fault_active() const override { return fault_ && fault_->active(); }
  fault::FaultInjector* fault() override { return fault_.get(); }
  void mark_terminal() override { ++completed_; }
  bool run_live() const override {
    return !source_done_ || completed_ < total_;
  }
  void notify_audit(const char* what, InvocationId inv = kNoInvocation,
                    NodeId node_id = kNoNode) override;

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

  // The layers (constructed after everything they reach through EngineHost;
  // declaration order matters).
  std::unique_ptr<ClusterState> cluster_;
  std::unique_ptr<InvocationLifecycle> lifecycle_;
  std::unique_ptr<ShardedController> controller_;
  std::unique_ptr<ctrl::ControlPlane> ctrlplane_;
};

}  // namespace libra::sim
