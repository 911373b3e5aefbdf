// Mutable per-invocation record threaded through the whole pipeline
// (Fig. 3 steps 1-5). Policies read the prediction fields and the engine owns
// the execution-state fields. Ground-truth fields (`truth`) exist so the
// engine can execute the invocation; policies must not read them when making
// decisions — they only see `pred_*` (enforced by convention and checked by
// the blind-policy test in tests/test_engine.cpp).
#pragma once

#include "sim/event_queue.h"
#include "sim/function.h"
#include "sim/types.h"

namespace libra::sim {

/// How the platform treated this invocation — the four marker classes of
/// Fig. 8. An invocation is Safeguarded if the safeguard fired regardless of
/// earlier harvesting/acceleration.
enum class InvOutcome { kDefault, kHarvested, kAccelerated, kSafeguarded };

/// One prediction's fields: what the profiler's serving paths build and
/// Policy::predict writes into the invocation (DESIGN.md §5m).
struct PredictionMemo {
  Resources pred_demand;
  double pred_duration = 0.0;
  bool pred_size_related = false;
  bool first_seen = false;
  /// Set (never cleared) when the prediction decided to probe — mirrors
  /// predict_histogram's write-only update of Invocation::profiling_probe.
  bool profiling_probe = false;
};

struct Invocation {
  InvocationId id = 0;
  FunctionId func = 0;
  InputSpec input;
  SimTime arrival = 0.0;
  /// Multi-tenant priority class (scenario matrix): per-tenant harvest
  /// quotas in HarvestResourcePool key off this. 0 (the default single
  /// tenant) keeps every existing run byte-identical.
  int tenant = 0;

  /// User-defined allocation (copied from the function at deployment).
  Resources user_alloc;

  /// Ground truth, filled by the workload generator from the FunctionModel.
  DemandProfile truth;

  // ---- Profiler outputs (Step 3) ----
  Resources pred_demand;         // predicted peak cpu/mem
  double pred_duration = 0.0;    // predicted execution time at full demand
  bool pred_size_related = false;
  bool first_seen = false;       // served with user config, used for training
  /// Profiling-window probe (§4.3.2): the platform serves the invocation
  /// with maximum allocation taken from node free capacity (not the pool)
  /// to observe its real peaks.
  bool profiling_probe = false;
  /// Extra node reservation granted to a probe; released at completion.
  Resources probe_extra;

  // ---- Placement (Step 4) ----
  NodeId node = kNoNode;
  ShardId shard = 0;
  /// Owning front-end controller (src/sim/ctrl): stamped `func % N` at
  /// admission, re-stamped when an idle controller steals the invocation.
  /// Selects which cached pool view the scheduler reads and where decisions
  /// are attributed; never affects shard assignment or event timing.
  int controller = 0;
  /// The controller whose admission queue holds the invocation, -1 while it
  /// is in none: the control plane's steal bookkeeping (set on enqueue,
  /// cleared on dequeue, moved by a steal; num_controllers > 1 only).
  int queued_controller = -1;
  bool cold_start = false;

  // ---- Execution state (owned by the engine) ----
  /// Resources currently usable by the container: user_alloc - harvested_out
  /// + borrowed_in.
  Resources effective;
  /// Largest allocation the container ever had; caps what a cgroup monitor
  /// can observe as the utilization peak.
  Resources max_effective;
  Resources harvested_out;  // currently harvested away from this invocation
  Resources borrowed_in;    // currently borrowed from the node's pool
  double progress = 0.0;    // core-seconds of work already retired
  SimTime last_progress_update = 0.0;
  uint64_t completion_generation = 0;
  EventId completion_event = kInvalidEvent;
  EventId monitor_event = kInvalidEvent;
  bool running = false;
  bool done = false;
  /// Time integrals of (borrowed_in - harvested_out), maintained by the
  /// engine while folding progress; Fig. 8's "Core x Sec" / "MB x Sec" axes.
  double reassigned_core_seconds = 0.0;
  double reassigned_mb_seconds = 0.0;
  /// This invocation's current contribution to ClusterState's cluster-wide
  /// usage integral, stored in-record instead of a side map (§5l). Owned by
  /// ClusterState::refresh_usage; `usage_contrib_present` mirrors the old
  /// map's membership (only nonzero contributions are tracked).
  Resources usage_contrib;
  bool usage_contrib_present = false;

  // ---- Lifecycle timestamps (Fig. 15 breakdown) ----
  SimTime t_frontend_done = 0.0;
  SimTime t_profiler_done = 0.0;
  SimTime t_sched_enqueue = 0.0;
  SimTime t_sched_done = 0.0;
  SimTime t_pool_done = 0.0;
  SimTime t_exec_start = 0.0;
  SimTime t_finish = -1.0;

  // ---- Outcome bookkeeping ----
  bool was_harvested = false;    // some resources were harvested from it
  bool was_accelerated = false;  // it ever held borrowed resources
  bool was_safeguarded = false;  // safeguard fired for it
  int oom_count = 0;
  /// Placement attempts that parked (no node could hold the reservation).
  int park_count = 0;

  // ---- Fault/resilience state (src/sim/fault) ----
  /// Terminal loss: killed by node churn with the retry budget exhausted, or
  /// parked past the placement timeout. Mutually exclusive with completion.
  bool lost = false;
  /// Crash / cold-start-failure kills re-dispatched with backoff. A separate
  /// budget from oom_retry_count: churn-kills must never consume the OOM
  /// rescue budget (or vice versa).
  int fault_retry_count = 0;
  /// OOM kills re-dispatched with backoff at full user allocation (OOM
  /// graceful degradation; only advances when EngineConfig::oom_redispatch).
  int oom_retry_count = 0;
  /// Set while the invocation is an OOM-rescue re-dispatch: the policy must
  /// serve it at its full user allocation (no harvesting, no probes).
  bool oom_protected = false;
  /// Placement attempt counter; container-start events from an older
  /// placement are invalidated when it advances (node died in between).
  uint64_t placement_epoch = 0;

  /// End-to-end response latency (valid after completion).
  double response_latency() const { return t_finish - arrival; }

  /// Fig. 8 marker class.
  InvOutcome outcome() const {
    if (was_safeguarded) return InvOutcome::kSafeguarded;
    if (was_accelerated) return InvOutcome::kAccelerated;
    if (was_harvested) return InvOutcome::kHarvested;
    return InvOutcome::kDefault;
  }

  /// True when the profiler thinks extra resources would speed it up (§6.3).
  bool accelerable() const {
    return pred_demand.cpu > user_alloc.cpu + 1e-9 ||
           pred_demand.mem > user_alloc.mem + 1e-9;
  }
};

}  // namespace libra::sim
