// Multi-controller control plane (DESIGN.md §5k): N front-end controllers,
// each owning the catalog shard `func % N` with its own admission accounting
// and a pool-status cache fed by seeded health-ping gossip. Controllers
// schedule against their (possibly stale) cached `core::PoolStatus` views;
// every commit is still validated against ground truth by the
// ShardedController, so a stale view can only cause a deterministic
// reject-and-requeue (counted as a conflict), never a silent over-commit.
//
// Determinism contract: in the divergence-free configurations (pass-through
// gossip, full fan-out, no gossip faults) every controller's cache equals
// the policy's own piggybacked snapshot at all times, so decisions — and
// therefore RunMetrics and the golden replay digests — are bit-identical
// across controller counts. Only the explicit divergence knobs
// (gossip_period > 0, fanout < N, gossip drop/delay probabilities) can make
// views differ, and those are excluded from the digest-identity gates.
//
// Cross-controller stealing: when a controller's queue exceeds the
// watermark, idle controllers steal batches of its oldest queued
// invocations in ascending controller-id order. The shard queues are the
// only queue order: a controller's queue is the invocations in them that it
// owns, and the control plane keeps just a depth per controller. Stealing
// re-stamps only the owning controller (which cache a decision reads and
// where it is attributed), never the engine-level shard or any event
// timing.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pool_status.h"
#include "sim/ctrl/ctrl_config.h"
#include "sim/ctrl/ctrl_stats.h"
#include "sim/types.h"
#include "util/id_bitset.h"

namespace libra::sim {
class Engine;
struct Invocation;
}  // namespace libra::sim

namespace libra::sim::ctrl {

class ControlPlane {
 public:
  explicit ControlPlane(Engine& host);

  /// Called once per run, after the fault injector exists and health pings
  /// are scheduled: resolves the policy's PoolStatusProvider seam, sizes the
  /// per-controller caches and starts the staggered periodic-gossip timers
  /// (gossip_period > 0 only).
  void start(SimTime first_arrival);

  /// True when the configuration cannot change engine behaviour at all: one
  /// controller, pass-through gossip, full fan-out, no gossip faults. The
  /// hot paths then skip every cache and queue-tracking step — the exact
  /// legacy single-controller engine.
  bool transparent() const { return transparent_; }
  int num_controllers() const { return cfg_.num_controllers; }

  // ---- ShardedController hooks ----
  /// Stamps the owning controller (func % num_controllers) at admission.
  void on_admit(Invocation& inv);
  /// `inv` joined a shard queue: counts it in its owner's depth, then runs a
  /// steal pass. Paired with on_dequeued per invocation.
  void on_enqueued(const Invocation& inv);
  /// The decision barrier popped `inv` off its shard queue (it resolved the
  /// record once and hands it over).
  void on_dequeued(const Invocation& inv);
  /// One committed scheduling decision: attribution, conflict counting
  /// (first_choice != kNoNode but ground truth rejected it) and a staleness
  /// sample of the view the choice was made from.
  void on_decision(const Invocation& inv, NodeId first_choice, bool placed);
  /// End-of-barrier steal pass (also run after every enqueue). A batch
  /// re-stamps the victim's first invocations in the shard queues, read
  /// position-major: the order the decision barriers will reach them.
  void maybe_steal();

  // ---- ClusterState hooks ----
  /// A health ping for `node` was delivered to the policy: fan the refreshed
  /// piggybacked snapshot out to the controller caches (pass-through mode).
  void on_gossip(NodeId node);
  /// Node recovered or received a drain notice: the policy cleared its own
  /// snapshot synchronously, so every controller's cached view of the node
  /// is cleared too (broadcast — all controllers learn platform-delivered
  /// events together, keeping caches identical across controller counts).
  void on_node_view_reset(NodeId node);

  /// The controller's cached pool view, or nullptr in transparent mode (the
  /// scheduler then reads the policy's own snapshot — the legacy path).
  const core::PoolStatus* view(NodeId node, int controller) const;
  /// The nodes whose view in the controller's cache holds an entry, or
  /// nullptr when there are no caches or no such controller.
  const util::IdBitset* occupied(int controller) const;

  /// Test hook modelling a cache write that forgot its occupancy bit: flips
  /// bit `node` of the controller's set without touching the view.
  void flip_occupied_for_audit_test(int controller, NodeId node);

  /// Snapshot for RunMetrics (digest-excluded section).
  const ControlPlaneStats& stats() const { return stats_; }

 private:
  /// One periodic-gossip timer firing: refresh the whole view, re-arm.
  void gossip_tick(int controller);
  void refresh_controller(int controller);
  /// Applies one gossip payload to one controller's cache, enforcing the
  /// monotonic taken_at guard and the post-reset floor (a delayed pre-crash
  /// payload must not resurrect ghost inventory).
  void apply_gossip(int controller, NodeId node, const core::PoolStatus& status);
  /// Fault-gated delivery of the provider's current snapshot of `node` to
  /// controller `c`: may drop, delay (parking a by-value copy in delayed_),
  /// or apply.
  void deliver_gossip(int controller, NodeId node);
  /// The delivery event of a delayed payload: applies it, frees its slot.
  void deliver_delayed(uint32_t slot);

  Engine& host_;
  ControlPlaneConfig cfg_;
  bool transparent_ = true;
  /// The policy's piggyback seam; nullptr when the policy keeps no pool
  /// snapshots (Default/Freyr/plain schedulers) — caches are then inert.
  const core::PoolStatusProvider* provider_ = nullptr;

  /// caches_[controller][node]: copy-on-gossip pool views.
  std::vector<std::vector<core::PoolStatus>> caches_;
  /// occupied_[controller]: bit n set exactly while caches_[controller][n]
  /// holds an entry (apply_gossip, on_node_view_reset).
  std::vector<util::IdBitset> occupied_;
  /// Per node: taken_at floor set by the last view reset; older in-flight
  /// delayed payloads are discarded.
  std::vector<SimTime> reset_floor_;
  /// Delayed gossip in flight, by slot. A payload is too large for an
  /// inline event capture, so its delivery event captures the slot index;
  /// freed slots (and their entry buffers) are reused.
  struct DelayedGossip {
    int controller = 0;
    NodeId node = 0;
    core::PoolStatus payload;
  };
  std::vector<DelayedGossip> delayed_;
  std::vector<uint32_t> delayed_free_;
  /// Pass-through fan-out rotation cursor.
  int fanout_cursor_ = 0;

  /// depth_[c]: the shard-queue entries whose invocation controller c owns
  /// (num_controllers > 1 only; the steal bookkeeping).
  std::vector<long> depth_;

  ControlPlaneStats stats_;
};

}  // namespace libra::sim::ctrl
