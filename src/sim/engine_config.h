// Engine configuration: cluster shape, pipeline service times, monitoring
// cadence, the control plane and the fault-injection knobs.
// Split out of engine.h so the Cluster / Lifecycle / Controller layers can
// share it without pulling in the engine itself.
#pragma once

#include <vector>

#include "sim/audit_hook.h"
#include "sim/container_pool.h"
#include "sim/ctrl/ctrl_config.h"
#include "sim/execution_model.h"
#include "sim/fault/fault_injector.h"
#include "sim/types.h"

namespace libra::sim {

class InvocationRecordSink;

struct EngineConfig {
  std::vector<Resources> node_capacities;
  int num_shards = 1;
  ContainerPoolConfig container;
  ExecutionModelConfig exec;

  double frontend_delay = 0.0005;        // request admission
  double profiler_delay = 0.002;         // §8.6: prediction < 2 ms
  double sched_decision_delay = 0.0005;  // simulated per-decision service time
  double pool_op_delay = 0.0002;         // harvest pool put/get
  double monitor_interval = 0.1;         // §5.2 monitor window
  double health_ping_interval = 1.0;     // pool-status piggyback period
  double oom_restart_penalty = 1.0;      // container kill + restart cost
  /// When true, times each scheduling decision (Policy::select_node) with a
  /// real clock (Fig. 12c).
  bool measure_real_sched_overhead = false;

  /// Pin for perfbench, 1 only (validate()); the benchmark refresh deletes it.
  int sched_workers = 1;

  /// Multi-controller control plane (src/sim/ctrl, DESIGN.md §5k): number
  /// of front-end controllers, gossip feeding of their pool-view caches and
  /// the cross-controller steal knobs. The default is transparent — one
  /// controller, pass-through gossip — and reproduces the golden digests.
  ctrl::ControlPlaneConfig control;

  // ---- Fault injection & recovery (src/sim/fault) ----
  fault::FaultPlan fault_plan;        // scripted faults, replayed verbatim
  fault::FaultProfile fault_profile;  // seeded probabilistic faults
  /// Spot/preemptible reclamation warning: outages flagged `spot` in the
  /// fault plan deliver a drain notice this many seconds before `down_at`.
  /// The notice fires Policy::on_drain_notice (letting a platform pull its
  /// harvests back gracefully), marks the node draining (the controller
  /// refuses new placements on it), and migrates every placed invocation off
  /// budget-free. 0 = no notice: spot outages behave like plain crashes.
  double spot_drain_notice = 0.0;
  /// Capped exponential backoff before re-dispatching an invocation killed
  /// by a node crash or a failed cold start: base * 2^attempt, <= cap.
  double retry_backoff_base = 0.1;
  double retry_backoff_cap = 5.0;
  /// Crash / cold-start-failure retries before an invocation is lost.
  int max_fault_retries = 3;
  /// OOM graceful degradation: instead of the classic in-place restart, an
  /// OOM-killed invocation is torn off its node and re-dispatched with
  /// capped backoff at its full user allocation (inv.oom_protected), its
  /// harvested grants preemptively released via Policy::on_evicted. Off by
  /// default — the paper's platforms restart in place.
  bool oom_redispatch = false;
  /// OOM re-dispatches before the invocation is lost (a budget deliberately
  /// separate from max_fault_retries: churn-kills must not consume it).
  int max_oom_retries = 3;
  /// Parked invocations unplaceable for this long are declared lost.
  /// Only enforced while fault injection is active (failure-free runs keep
  /// the park-until-capacity-frees semantics).
  double placement_timeout = 600.0;
  /// The controller suspects a node after this many silent ping intervals.
  double suspect_after_missed_pings = 3.0;
  /// Sampled churn extends this far past the last trace arrival.
  double churn_horizon_pad = 120.0;

  // ---- Record retention and memory (planet-scale streaming runs) ----
  /// Keep the per-invocation InvocationRecord vector in RunMetrics. Off:
  /// records only flow through `record_sink` and RunMetrics keeps O(1)
  /// counters — required for memory-flat 10M-invocation runs.
  bool retain_records = true;
  /// Optional per-record tap invoked at finalize time (completion, loss, or
  /// the end-of-run straggler sweep) regardless of retain_records.
  /// Non-owning.
  InvocationRecordSink* record_sink = nullptr;
  /// Minimum sim-time spacing between cluster utilization series samples.
  /// 0 = record every change: exact, but O(#events) series memory plus an
  /// O(#nodes) allocated-sum per sample — prohibitive at planet scale.
  double series_resolution = 0.0;
  /// Recycle terminal invocation records (their store slots) through a free
  /// list, so live memory tracks the in-flight count instead of the stream
  /// length. Checked by the invariant auditor: a recycled record is never
  /// referenced by a live continuation.
  bool recycle_records = false;

  /// Invariant auditor (src/analysis) notified after every dispatched event.
  /// Non-owning; nullptr disables the cross-layer checks (the pool-internal
  /// conservation audits still run).
  EngineAuditHook* audit_hook = nullptr;

  /// Full configuration validity check: cluster shape, pipeline delays,
  /// scheduling/fault/streaming knobs (all NaN-proof), plus
  /// fault_plan.validate() and fault_profile.validate(). Throws
  /// std::invalid_argument naming the offending knob. The Engine constructor
  /// calls this; the scenario fuzzer uses it as its validity predicate.
  void validate() const;
};

}  // namespace libra::sim
