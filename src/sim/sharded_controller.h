// Controller layer: the decentralized sharded scheduler of §6.4. Owns the
// per-shard FIFO queues, the parked-invocation list and the per-shard
// decision service-time bookkeeping, and replaces the monolithic engine's
// per-shard decision events with EVENT BARRIERS: all shards whose next
// decision falls on the same timestamp form one batch. A barrier pops one
// invocation per member shard, then decides each with Policy::select_node
// in shard-registration order, at exactly the position the serial engine's
// per-shard event would have run it. RunMetrics are bit-identical to the
// pre-refactor engine (asserted by the golden-replay test).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/invocation.h"
#include "sim/types.h"

namespace libra::sim {

class Engine;

class ShardedController {
 public:
  explicit ShardedController(Engine& host);

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

  /// The per-shard FIFO queues, front first: the order each shard's
  /// decision barriers will pop them (read by the control plane's steals).
  const std::vector<std::deque<InvocationId>>& shard_queues() const {
    return shard_queues_;
  }

 private:
  /// Registers the shard for its next decision slot (max(now, busy_until))
  /// unless it is already registered or has nothing queued. Joins the batch
  /// already pending at that timestamp, or opens a new one and schedules its
  /// barrier event.
  void pump(ShardId shard);

  /// The barrier event: pops one invocation per shard registered at `at`,
  /// decides them in registration order and re-pumps the member shards.
  void run_barrier(SimTime at);

  /// Decides and applies one member's placement: the old monolithic
  /// try_place.
  void commit_one(Invocation& inv);

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

  /// The invocations the running barrier popped, one buffer reused by every
  /// barrier so a barrier allocates nothing once it has grown. It is free
  /// between barriers: run_barrier runs only as its own queue event, and the
  /// commits and re-pumps inside it only schedule events (run_barrier
  /// checks). The record pointers stay valid for the whole barrier: the
  /// engine inserts and recycles records only between events.
  std::vector<Invocation*> items_;

  std::vector<InvocationId> waiting_;  // parked until capacity frees
  /// Scratch for retry_waiting and expire_overdue_waiting, empty between
  /// calls: swapped with waiting_, so neither call allocates once both
  /// buffers have grown.
  std::vector<InvocationId> waiting_scratch_;
};

}  // namespace libra::sim
