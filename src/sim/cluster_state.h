// Cluster layer: owns the worker nodes, the per-node placed lists, the
// free-capacity index, the controller's ping-based health view, the churn
// bookkeeping and the cluster-wide usage/allocation series. Everything node-
// or cluster-scoped that the old monolithic engine tracked lives here; the
// other layers reach it through Engine::cluster().
#pragma once

#include <vector>

#include "sim/event_queue.h"
#include "sim/invocation.h"
#include "sim/node.h"

namespace libra::sim {

class Engine;

class ClusterState {
 public:
  /// Builds the node fleet from host.config() and accumulates the total
  /// capacity into host.metrics().
  explicit ClusterState(Engine& host);

  const std::vector<Node>& nodes() const { return nodes_; }
  Node& node(NodeId id) { return nodes_.at(static_cast<size_t>(id)); }

  /// Records that `id` now holds a reservation on `node`: sorted-unique
  /// insertion into the node's placed list (binary search, the
  /// backfill-candidate idiom). Marks the node touched.
  void insert_placed(InvocationId id, NodeId node);
  /// Drops `id` from `node`'s placed list; a no-op when it is not there.
  /// Marks the node touched either way.
  void erase_placed(InvocationId id, NodeId node);
  /// Invocations currently holding a reservation on `node`, in ascending id
  /// order. The auditor's sweep walks these in place.
  const std::vector<InvocationId>& placed_on(NodeId node) const {
    return placed_[static_cast<size_t>(node)];
  }

  /// Nodes whose accounting, liveness or placed list changed since the last
  /// clear_touched(), each once: every Node mutator and insert_placed /
  /// erase_placed mark here. The engine clears it after each audited event.
  const std::vector<NodeId>& touched_nodes() const { return touched_.ids(); }
  void clear_touched() { touched_.clear(); }
  /// Marks `node` without changing it: a finalized record that still names
  /// its node (see InvocationLifecycle::finalize_record).
  void mark_touched(NodeId node) { touched_.mark(node); }

  /// {largest free cpu, largest free mem} over the nodes' slices of `shard`:
  /// the capacity index's root, maintained by the nodes themselves.
  Resources max_shard_free(ShardId shard) const {
    return capacity_.max(shard);
  }
  /// Test hook modelling a reservation change whose index write went wrong:
  /// overwrites `node`'s leaf of `shard` with `free` and marks the node, as
  /// the mutation would have.
  void stale_capacity_for_audit_test(NodeId node, ShardId shard,
                                     const Resources& free) {
    capacity_.update(node, shard, free);
    touched_.mark(node);
  }

  /// Initializes the health view and schedules the staggered per-node ping
  /// loops. Called once from Engine::run after the fault injector exists.
  void start_health_pings(SimTime first_arrival);

  /// Controller-side suspicion from missed pings (§6.4); deliberately stale.
  bool node_suspected_down(NodeId id) const;

  /// Per-node health ping: refreshes the controller's view and the policy's
  /// piggybacked pool snapshot; doubles as the parked-invocation recovery
  /// sweep while fault injection is active.
  void health_ping(NodeId node_id);

  // ---- Churn timeline handlers ----
  void on_node_down(NodeId node_id);
  void on_node_up(NodeId node_id);

  /// Spot reclamation warning: the node will crash at `down_at`. Fires
  /// Policy::on_drain_notice (graceful harvest pull-back), marks the node
  /// draining until `down_at`, then drain-migrates every placed invocation
  /// off it budget-free. No-op if the node is already down.
  void on_drain_notice(NodeId node_id, SimTime down_at);
  /// True while a delivered drain notice's crash deadline is still ahead;
  /// the controller refuses to place new work on a draining node.
  bool node_draining(NodeId id) const;

  // ---- Cluster-wide usage accounting ----
  /// Re-derives the invocation's contribution to the live usage sums. The
  /// contribution currently reflected in the sums lives inline on the record
  /// (Invocation::usage_contrib, §5l) — no side map to allocate or look up.
  void refresh_usage(Invocation& inv, bool stopping);
  /// Samples the four cluster series (used / allocated, cpu / mem) now.
  /// When EngineConfig::series_resolution > 0, samples at most once per
  /// resolution interval — the allocated-sum loop is O(#nodes), so planet-
  /// scale runs must bound how often it runs (and how many points persist).
  void record_series();

 private:
  Engine& host_;
  /// Declared before nodes_: every node holds a pointer to each.
  TouchLog touched_;
  CapacityIndex capacity_;
  std::vector<Node> nodes_;

  /// Every ping re-arms one interval after now(), so they share a FIFO
  /// lane (EventQueue::schedule_fifo) instead of the heap.
  const EventQueue::FifoLane ping_lane_;
  std::vector<SimTime> last_ping_delivered_;  // controller health view
  std::vector<SimTime> down_since_;           // crash time per down node
  /// Per node: the crash deadline of the last delivered drain notice. The
  /// draining window closes by itself when the crash lands (deadline == the
  /// outage's down_at), so no explicit clearing is needed.
  std::vector<SimTime> draining_until_;

  /// Per node: live invocations holding a reservation there, sorted by id.
  /// Kept in lockstep with try_reserve/release so audits stay O(placed), not
  /// O(all ever run); per-node lists keep a completion's erase to a memmove
  /// over one node's ids instead of everything in flight.
  std::vector<std::vector<InvocationId>> placed_;

  // Last sampled series time; gates record_series under series_resolution.
  SimTime last_series_at_ = -1.0;

  // Live usage accounting (cluster-wide sums, updated incrementally). The
  // per-invocation contributions live on the records themselves
  // (Invocation::usage_contrib / usage_contrib_present).
  Resources used_now_;
};

}  // namespace libra::sim
