// Controller layer: the decentralized sharded scheduler of §6.4. Owns the
// per-shard FIFO queues, the parked-invocation list and the per-shard
// decision service-time bookkeeping, and replaces the monolithic engine's
// per-shard decision events with EVENT BARRIERS: all shards whose next
// decision falls on the same timestamp form one batch. A barrier pops one
// invocation per member shard and commits the decisions serially in
// shard-registration order, each at exactly the position the serial engine
// would have run it. With one scheduling worker a commit is the ordinary
// Policy::select_node and nothing else runs. With more
// (EngineConfig::sched_workers > 1) a speculate phase comes first:
//
//   speculate: every member's Policy::speculate_select runs on a frozen
//     pre-batch view, in parallel across the SchedWorkerPool (decisions of
//     distinct shards touch disjoint shard slices, ping-time pool snapshots
//     and the ping-based health view, none of which a same-batch commit can
//     change);
//   commit: a member whose policy speculated commits through
//     Policy::commit_select, the others run select_node right there.
//
// The merge rule makes RunMetrics bit-identical with 1 worker, N workers or
// the pre-refactor engine (asserted by the golden-replay test).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/invocation.h"
#include "sim/sched_worker_pool.h"
#include "sim/types.h"

namespace libra::sim {

class Engine;

class ShardedController {
 public:
  explicit ShardedController(Engine& host);
  ~ShardedController();

  /// Profiler stage complete: joins (or opens) the prediction barrier at the
  /// current instant (§5l). The barrier predicts serially in registration
  /// order and schedules each invocation's admission after profiler_delay —
  /// the serial path's per-event predict/schedule sequence, batched. With
  /// more than one scheduling worker it first speculates pure predictions
  /// across the worker pool and commits those memos in the same order.
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

  /// The barrier event: pops one invocation per shard registered at `at`,
  /// speculates them across the worker pool when there is one, commits
  /// serially in registration order and re-pumps the member shards.
  void run_barrier(SimTime at);

  /// The prediction barrier event (§5l): serial predict (or, on the worker
  /// pool, commit_predict of a Policy::speculate_predict memo) and admission
  /// scheduling, in registration order.
  void run_pred_barrier(SimTime at);

  /// Applies one member's decision: the old monolithic try_place, with the
  /// Step-4 selection either pre-computed (speculated) or run serially here.
  void commit_one(Invocation& inv, const std::optional<NodeId>& speculated,
                  double decision_seconds);

  Engine& host_;

  /// Distinct shard-slice capacities across the fleet (usually one entry —
  /// homogeneous nodes), precomputed so admit()'s can-ever-fit rejection is
  /// O(distinct capacities) instead of O(#nodes) per invocation.
  std::vector<Resources> distinct_shard_caps_;

  std::vector<std::deque<InvocationId>> shard_queues_;
  std::vector<SimTime> shard_busy_until_;
  /// Nonzero while the shard sits in a pending batch (mirrors the serial
  /// engine's "pump already scheduled" flag). Bytes, not std::vector<bool>:
  /// the flag is read and written on every pump.
  std::vector<uint8_t> shard_registered_;

  /// A shard waiting for the barrier at `at`.
  struct Registration {
    SimTime at = 0.0;
    ShardId shard = 0;
  };
  /// Every pending registration, in the order the shards registered: at
  /// most one per shard, so the list never outgrows num_shards and a linear
  /// scan beats any keyed lookup (§5l). A batch is the registrations that
  /// share a timestamp. run_barrier takes its batch out of the list before
  /// processing it, so same-time registrations made by later handlers open
  /// a fresh batch with a fresh (later) event — exactly where the serial
  /// engine's per-shard events would have landed.
  std::vector<Registration> registrations_;

  /// One invocation a decision barrier popped, and (worker pool only) its
  /// speculated pick with the pick's measured cost.
  struct BarrierItem {
    Invocation* inv = nullptr;
    std::optional<NodeId> speculated;
    double decision_seconds = 0.0;
  };
  /// The running barrier's items, one buffer reused by every barrier so a
  /// barrier allocates nothing once it has grown. It is free between
  /// barriers: run_barrier runs only as its own queue event, and the commits
  /// and re-pumps inside it only schedule events (run_barrier checks). The
  /// record pointers stay valid for the whole barrier: the engine inserts
  /// and recycles records only between events.
  std::vector<BarrierItem> items_;

  /// Pending prediction barriers: one (timestamp, ids) pair per barrier,
  /// with the same erase-before-process discipline as registrations_.
  std::vector<std::pair<SimTime, std::vector<InvocationId>>> pred_batches_;
  std::vector<std::vector<InvocationId>> pred_spare_;
  /// The worker pool's prediction memos for the running barrier,
  /// index-aligned with its ids; empty with one worker and between
  /// barriers.
  std::vector<std::optional<PredictionMemo>> pred_memos_;

  std::vector<InvocationId> waiting_;  // parked until capacity frees
  /// Scratch for retry_waiting and expire_overdue_waiting, empty between
  /// calls: swapped with waiting_, so neither call allocates once both
  /// buffers have grown.
  std::vector<InvocationId> waiting_scratch_;

  /// Lazily created on the first multi-member batch when sched_workers > 1.
  std::unique_ptr<SchedWorkerPool> pool_;
};

}  // namespace libra::sim
