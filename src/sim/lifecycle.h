// Lifecycle layer: the per-invocation state machine between placement and a
// terminal outcome — container start, piecewise execution progress, monitor
// ticks, OOM (in-place restart or graceful re-dispatch), completion,
// churn kills, retry backoff and terminal loss. Cluster-scoped effects
// (usage accounting, node reservations) go through Engine::cluster();
// re-queues go through Engine::controller().
#pragma once

#include <vector>

#include "sim/event_queue.h"
#include "sim/execution_model.h"
#include "sim/invocation.h"

namespace libra::sim {

class Engine;

class InvocationLifecycle {
 public:
  InvocationLifecycle(Engine& host, const ExecutionModel& exec);

  /// Container is up: start (or restart) executing. `epoch` guards against
  /// placements invalidated while the container was starting.
  void begin_execution(InvocationId id, uint64_t epoch);
  void handle_completion(InvocationId id, uint64_t generation);
  void handle_oom(InvocationId id, uint64_t generation);
  void monitor_tick(InvocationId id);

  /// Tears down one invocation on a crashing node and retries or loses it.
  void kill_invocation(InvocationId id);
  /// Drain migration (spot reclamation): tears the invocation off a LIVE,
  /// draining node and requeues it immediately, WITHOUT consuming the
  /// fault-retry budget — the platform was warned, so the move is not a
  /// failure. An invocation sitting out a retry backoff (node == kNoNode)
  /// is untouched: it holds nothing on the node and must not be
  /// double-counted against max_fault_retries.
  void drain_invocation(InvocationId id);
  /// Schedules the post-kill retry, or loses the invocation when the retry
  /// budget is exhausted. `extra_delay` is added on top of the backoff.
  void retry_or_lose(Invocation& inv, double extra_delay);
  /// Terminal loss: the invocation will never complete.
  void lose_invocation(Invocation& inv);

  // ---- EngineApi surface backed by this layer ----
  void update_effective(InvocationId id, const Resources& effective);
  void sync_accounting(InvocationId id);
  Resources observed_usage(InvocationId id) const;
  Resources observed_peak(InvocationId id) const;

  /// Emits the final InvocationRecord into the run metrics, records the id
  /// in finalized_ids() and marks the node the record still names.
  void finalize_record(Invocation& inv);

  /// Ids finalized since the last clear_finalized() (EngineApi seam).
  const std::vector<InvocationId>& finalized_ids() const { return finalized_; }
  void clear_finalized() { finalized_.clear(); }

 private:
  void schedule_progress_events(Invocation& inv);
  void fold_progress(Invocation& inv);
  /// The one teardown path (crash, drain, OOM re-dispatch): folds progress,
  /// disarms events, releases the node reservation and resets the invocation
  /// to its pre-placement resource state. Every path but the crash releases
  /// the warm container — on a crash the whole container pool dies with the
  /// node.
  void teardown_placement(Invocation& inv, bool release_container);
  /// OOM graceful degradation: tears the invocation off its (live) node and
  /// re-dispatches it at full user allocation on the separate OOM budget.
  void redispatch_after_oom(Invocation& inv);

  Engine& host_;
  const ExecutionModel& exec_;
  /// Every monitor tick fires one monitor_interval after now(), so the
  /// ticks share a FIFO lane (EventQueue::schedule_fifo), not the heap.
  const EventQueue::FifoLane monitor_lane_;
  std::vector<InvocationId> finalized_;
};

}  // namespace libra::sim
