// Controller layer: the decentralized sharded scheduler of §6.4. Owns the
// per-shard FIFO queues, the parked-invocation list and the per-shard
// decision service-time bookkeeping, and replaces the monolithic engine's
// per-shard decision events with EVENT BARRIERS: all shards whose next
// decision falls on the same timestamp form one batch. Each batch runs in
// two phases —
//
//   speculate: every member's Policy::speculate_select runs on a frozen
//     pre-batch view, in parallel across the SchedWorkerPool (decisions of
//     distinct shards touch disjoint shard slices, ping-time pool snapshots
//     and the ping-based health view, none of which a same-batch commit can
//     change);
//   commit: grants are applied serially in shard-registration order; members
//     whose policy declined to speculate run the ordinary order-dependent
//     Policy::select_node right here, at exactly the position the serial
//     engine would have run it.
//
// The merge rule makes RunMetrics bit-identical with 1 worker, N workers or
// the pre-refactor engine (asserted by the golden-replay test).
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/sched_worker_pool.h"
#include "sim/types.h"

namespace libra::sim {

class Engine;

class ShardedController {
 public:
  explicit ShardedController(Engine& host);
  ~ShardedController();

  /// Profiler stage complete: joins (or opens) the prediction barrier at the
  /// current instant (§5l). The barrier speculates pure predictions across
  /// the worker pool, commits them serially in registration order, and
  /// schedules each invocation's admission after profiler_delay — the serial
  /// path's per-event predict/schedule sequence, batched.
  void enqueue_prediction(InvocationId id);

  /// Profiled invocation enters the scheduling layer: assigns its shard
  /// (id-based stateless dispatch, §6.4), rejects invocations that can never
  /// fit any shard slice, and queues the rest.
  void admit(InvocationId id);

  /// Backoff expired: hand the invocation back to its shard queue.
  void requeue_after_fault(InvocationId id);

  /// Capacity freed: hand parked invocations back to their shards in FIFO
  /// order. They pay another scheduling decision, like OpenWhisk retries.
  void retry_waiting();

  /// Declares parked invocations lost once they exceed placement_timeout.
  void expire_overdue_waiting();

 private:
  /// Registers the shard for its next decision slot (max(now, busy_until))
  /// unless it is already registered or has nothing queued. Joins the batch
  /// already pending at that timestamp, or opens a new one and schedules its
  /// barrier event.
  void pump(ShardId shard);

  /// The barrier event: pops up to EngineConfig::sched_batch_depth
  /// invocations per registered shard, runs the speculate phase across the
  /// worker pool, then commits serially in registration order and re-pumps
  /// the member shards.
  void run_barrier(SimTime at);

  /// The prediction barrier event (§5l): parallel Policy::speculate_predict
  /// memos, serial commit_predict/predict + admission scheduling.
  void run_pred_barrier(SimTime at);

  /// Applies one member's decision: the old monolithic try_place, with the
  /// Step-4 selection either pre-computed (speculated) or run serially here.
  void commit_one(InvocationId id, const std::optional<NodeId>& speculated,
                  double decision_seconds);

  Engine& host_;

  /// Distinct shard-slice capacities across the fleet (usually one entry —
  /// homogeneous nodes), precomputed so admit()'s can-ever-fit rejection is
  /// O(distinct capacities) instead of O(#nodes) per invocation.
  std::vector<Resources> distinct_shard_caps_;

  std::vector<std::deque<InvocationId>> shard_queues_;
  std::vector<SimTime> shard_busy_until_;
  /// True while the shard sits in a pending batch (mirrors the serial
  /// engine's "pump already scheduled" flag).
  std::vector<bool> shard_registered_;

  /// Pending decision batches, one (timestamp, members) pair per barrier —
  /// a flat vector instead of a time-keyed map because only a handful of
  /// barriers are ever outstanding, so a linear scan beats tree lookups
  /// (§5l). An entry is removed before its members are processed, so
  /// same-time registrations made by later handlers open a fresh batch with
  /// a fresh (later) event — exactly where the serial engine's per-shard
  /// events would have landed.
  std::vector<std::pair<SimTime, std::vector<ShardId>>> batches_;
  /// Retired member vectors, recycled to keep the hot path allocation-free.
  std::vector<std::vector<ShardId>> batch_spare_;

  /// One invocation a decision barrier popped, and its speculated pick.
  struct BarrierItem {
    InvocationId inv = 0;
    std::optional<NodeId> speculated;
    double decision_seconds = 0.0;
  };
  /// The running barrier's items, one buffer reused by every barrier so a
  /// barrier allocates nothing once it has grown. It is free between
  /// barriers: run_barrier runs only as its own queue event, and the commits
  /// and re-pumps inside it only schedule events (run_barrier checks).
  std::vector<BarrierItem> items_;

  /// Pending prediction barriers, same flat layout and erase-before-process
  /// discipline as batches_.
  std::vector<std::pair<SimTime, std::vector<InvocationId>>> pred_batches_;
  std::vector<std::vector<InvocationId>> pred_spare_;

  std::vector<InvocationId> waiting_;  // parked until capacity frees
  /// Scratch for retry_waiting and expire_overdue_waiting, empty between
  /// calls: swapped with waiting_, so neither call allocates once both
  /// buffers have grown.
  std::vector<InvocationId> waiting_scratch_;

  /// Lazily created on the first multi-member batch when sched_workers > 1.
  std::unique_ptr<SchedWorkerPool> pool_;
};

}  // namespace libra::sim
