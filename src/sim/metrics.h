// Run-level measurement: one record per invocation plus cluster-wide
// utilization/allocation time series. Everything the §8 figures need is
// derived from this struct (response latency and speedup CDFs, utilization
// timelines, per-invocation reassignment scatter, stage breakdowns, ...).
#pragma once

#include <vector>

#include "sim/ctrl/ctrl_stats.h"
#include "sim/invocation.h"
#include "sim/policy.h"
#include "sim/types.h"
#include "util/stats.h"

namespace libra::sim {

struct InvocationRecord {
  InvocationId id = 0;
  FunctionId func = 0;
  SimTime arrival = 0.0;
  SimTime exec_start = 0.0;
  SimTime finish = 0.0;
  double response_latency = 0.0;
  /// Counterfactual latency with the static user allocation (Eq. 1 basis).
  double user_latency = 0.0;
  /// speedup := (t_user - t_libra) / t_user  (Eq. 1).
  double speedup = 0.0;
  InvOutcome outcome = InvOutcome::kDefault;
  bool cold_start = false;
  int oom_count = 0;
  bool completed = false;
  /// Declared lost by the resilience machinery (node churn killed it past
  /// the retry budget, it timed out unplaced, or its OOM rescue budget ran
  /// out). Never true for completed.
  bool lost = false;
  /// Crash / cold-start-failure kills that were re-dispatched with backoff.
  int fault_retries = 0;
  /// OOM kills re-dispatched with backoff at full user allocation (a budget
  /// separate from fault_retries).
  int oom_retries = 0;
  Resources user_alloc;
  Resources pred_demand;
  Resources true_demand;
  /// Net reassigned resource-time (Fig. 8 x-axis): borrowed minus harvested,
  /// integrated over the execution.
  double reassigned_core_seconds = 0.0;
  double reassigned_mb_seconds = 0.0;
  // Stage latencies (Fig. 15).
  double stage_frontend = 0.0;
  double stage_profiler = 0.0;
  double stage_scheduler = 0.0;  // queueing + decision
  double stage_pool = 0.0;
  double stage_container = 0.0;
  double stage_exec = 0.0;
};

/// Per-record tap for streaming runs: invoked exactly once per invocation at
/// finalize time, in finalize order. Lets sketch-backed collectors (see
/// exp::StreamingCollector) replace the O(#invocations) record vector.
class InvocationRecordSink {
 public:
  virtual ~InvocationRecordSink() = default;
  virtual void on_record(const InvocationRecord& rec) = 0;
};

struct RunMetrics {
  /// Empty when EngineConfig::retain_records is off (streaming mode); the
  /// finalized_* counters below are maintained either way.
  std::vector<InvocationRecord> invocations;

  // Cluster-wide piecewise-constant series.
  util::StepSeries cpu_used;
  util::StepSeries mem_used;
  util::StepSeries cpu_allocated;
  util::StepSeries mem_allocated;

  Resources total_capacity;
  SimTime first_arrival = 0.0;
  SimTime makespan_end = 0.0;

  long cold_starts = 0;
  long warm_starts = 0;
  long oom_events = 0;
  long incomplete = 0;  // never placed and not lost (should be 0)

  // ---- Resilience counters (src/sim/fault) ----
  long node_crashes = 0;
  long node_recoveries = 0;
  long fault_retries = 0;       // crash/cold-start kills that were retried
  long lost_invocations = 0;    // ALL terminal losses (any budget / timeout)
  /// OOM kills re-dispatched with backoff (EngineConfig::oom_redispatch).
  long oom_retries = 0;
  /// Terminal losses whose last straw was an exhausted OOM rescue budget; a
  /// subset of lost_invocations (the loss ledger never double-counts).
  long oom_terminal_losses = 0;
  long cold_start_failures = 0;
  long dropped_health_pings = 0;
  long delayed_health_pings = 0;
  long suppressed_monitor_ticks = 0;
  /// Scheduling decisions that picked a node which was actually down — the
  /// controller's ping-based health view had not caught up yet.
  long stale_snapshot_decisions = 0;
  /// Per recovery: how long the node was down (crash-to-recovery), seconds.
  std::vector<double> recovery_latencies;

  /// Real (wall-clock) per-decision scheduling overhead samples, seconds.
  /// Only populated while retain_records is on; the counters below stay
  /// exact in streaming mode. (Excluded from the replay digest — wall-clock.)
  std::vector<double> sched_overhead_seconds;

  // ---- Streaming counters (never part of the replay digest) ----
  /// Spot drain notices delivered to the cluster (scenario matrix; outside
  /// the digest so notice-free runs stay bit-identical to the goldens).
  long drain_notices = 0;
  /// Invocations migrated off a draining node (budget-free evictions — they
  /// do NOT count against max_fault_retries or metrics.fault_retries).
  long drain_evictions = 0;
  /// Scheduling decisions committed (select_node calls).
  long sched_decisions = 0;
  /// Sum of wall-clock decision times, seconds (only measured when
  /// measure_real_sched_overhead is on).
  double sched_overhead_sum = 0.0;
  /// Records finalized, maintained even when retain_records is off.
  long finalized_records = 0;
  long finalized_completed = 0;
  long finalized_incomplete = 0;  // neither completed nor lost
  /// High-water mark of simultaneously live Invocation structs — the
  /// memory-flatness signal for streaming runs (equals the stream length
  /// unless recycle_records is on, then tracks the in-flight count).
  long peak_live_records = 0;

  /// Multi-controller control plane (src/sim/ctrl): per-controller
  /// admission/decision/conflict/steal/gossip-staleness counters. In the
  /// digest-excluded section by design — a run must stay bit-identical
  /// across controller counts, and these counters are what differs.
  ctrl::ControlPlaneStats control;

  PolicyStats policy;

  // ---- Derived views ----
  std::vector<double> response_latencies() const;
  std::vector<double> speedups() const;
  /// Time from first arrival to last completion.
  double workload_completion_time() const;
  /// Time-weighted average utilization over the active window.
  double avg_cpu_utilization() const;
  double avg_mem_utilization() const;
  double peak_cpu_utilization() const;
  double peak_mem_utilization() const;
  double p99_latency() const;
  /// Fraction of invocations whose safeguard fired.
  double safeguarded_fraction() const;
  /// Goodput under churn: fraction of invocations that actually completed
  /// (1.0 for an empty run — nothing was lost).
  double goodput() const;
  double mean_recovery_latency() const;
};

}  // namespace libra::sim
