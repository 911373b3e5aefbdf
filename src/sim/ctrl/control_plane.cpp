#include "sim/ctrl/control_plane.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/engine.h"
#include "sim/sharded_controller.h"
#include "util/audit.h"

namespace libra::sim::ctrl {

void ControlPlaneConfig::validate() const {
  if (num_controllers < 1)
    throw std::invalid_argument(
        "ControlPlaneConfig: num_controllers must be >= 1");
  if (!std::isfinite(gossip_period) || !(gossip_period >= 0.0))
    throw std::invalid_argument(
        "ControlPlaneConfig: gossip_period is NaN, infinite, or negative");
  if (gossip_fanout < 0)
    throw std::invalid_argument(
        "ControlPlaneConfig: gossip_fanout must be >= 0 (0 = all)");
  if (steal_watermark < 0)
    throw std::invalid_argument(
        "ControlPlaneConfig: steal_watermark must be >= 0");
}

ControlPlane::ControlPlane(Engine& host)
    : host_(host), cfg_(host.config().control) {
  const fault::FaultProfile& fp = host_.config().fault_profile;
  transparent_ = cfg_.num_controllers == 1 && cfg_.gossip_period == 0.0 &&
                 cfg_.gossip_fanout == 0 && fp.gossip_drop_prob == 0.0 &&
                 fp.gossip_delay_prob == 0.0;
  stats_.controllers.resize(static_cast<size_t>(cfg_.num_controllers));
  if (cfg_.num_controllers > 1)
    depth_.assign(static_cast<size_t>(cfg_.num_controllers), 0);
}

void ControlPlane::start(SimTime first_arrival) {
  provider_ = dynamic_cast<const core::PoolStatusProvider*>(&host_.policy());
  if (transparent_ || !provider_) return;
  const size_t nodes = host_.config().node_capacities.size();
  caches_.assign(static_cast<size_t>(cfg_.num_controllers),
                 std::vector<core::PoolStatus>(nodes));
  occupied_.assign(static_cast<size_t>(cfg_.num_controllers),
                   util::IdBitset(nodes));
  reset_floor_.assign(nodes, 0.0);
  if (cfg_.gossip_period <= 0.0) return;  // pass-through: fed by on_gossip
  // Periodic refresh per controller, staggered like the health-ping loops so
  // controllers never burst-refresh on the same timestamp.
  for (int c = 0; c < cfg_.num_controllers; ++c) {
    const double offset =
        cfg_.gossip_period * (static_cast<double>(c) /
                              static_cast<double>(cfg_.num_controllers));
    host_.queue().schedule(first_arrival + offset, [this, c] { gossip_tick(c); });
  }
}

void ControlPlane::gossip_tick(int controller) {
  refresh_controller(controller);
  if (host_.run_live()) {
    host_.queue().schedule_after(cfg_.gossip_period,
                                 [this, controller] { gossip_tick(controller); });
  }
}

void ControlPlane::refresh_controller(int controller) {
  const size_t nodes = caches_[static_cast<size_t>(controller)].size();
  for (size_t n = 0; n < nodes; ++n)
    deliver_gossip(controller, static_cast<NodeId>(n));
}

void ControlPlane::deliver_gossip(int controller, NodeId node) {
  const core::PoolStatus& status = provider_->pool_status(node);
  ControllerStats& cs = stats_.controllers[static_cast<size_t>(controller)];
  if (host_.fault_active()) {
    fault::FaultInjector* injector = host_.fault();
    const SimTime now = host_.queue().now();
    if (injector->drop_gossip(controller, now)) {
      ++cs.gossip_drops;
      return;
    }
    const double delay = injector->gossip_delay(controller, now);
    if (delay > 0.0) {
      ++cs.gossip_delays;
      // Copy the payload NOW: a delayed gossip message carries the snapshot
      // as of send time; the pool may look different by delivery time.
      if (delayed_free_.empty()) {
        delayed_free_.push_back(static_cast<uint32_t>(delayed_.size()));
        delayed_.emplace_back();
      }
      const uint32_t slot = delayed_free_.back();
      delayed_free_.pop_back();
      DelayedGossip& d = delayed_[slot];
      d.controller = controller;
      d.node = node;
      d.payload = status;
      host_.queue().schedule_after(delay,
                                   [this, slot] { deliver_delayed(slot); });
      return;
    }
  }
  apply_gossip(controller, node, status);
}

void ControlPlane::deliver_delayed(uint32_t slot) {
  const DelayedGossip& d = delayed_[slot];
  apply_gossip(d.controller, d.node, d.payload);
  delayed_free_.push_back(slot);
}

void ControlPlane::apply_gossip(int controller, NodeId node,
                                const core::PoolStatus& status) {
  ControllerStats& cs = stats_.controllers[static_cast<size_t>(controller)];
  core::PoolStatus& slot =
      caches_[static_cast<size_t>(controller)][static_cast<size_t>(node)];
  // Monotonic taken_at guard plus the post-reset floor: a delayed payload
  // older than the cache (or older than the last platform-delivered view
  // reset) must not roll the view backwards or resurrect ghost inventory.
  if (status.taken_at < reset_floor_[static_cast<size_t>(node)] ||
      status.taken_at < slot.taken_at) {
    ++cs.gossip_discards;
    return;
  }
  slot = status;  // copy-on-gossip: the only copy a view refresh pays
  occupied_[static_cast<size_t>(controller)].set(static_cast<size_t>(node),
                                                 !slot.entries.empty());
  ++cs.gossip_updates;
}

void ControlPlane::on_gossip(NodeId node) {
  if (transparent_ || !provider_ || cfg_.gossip_period > 0.0) return;
  const int n = cfg_.num_controllers;
  const int fanout = cfg_.gossip_fanout;
  if (fanout <= 0 || fanout >= n) {
    for (int c = 0; c < n; ++c) deliver_gossip(c, node);
    return;
  }
  // Partial fan-out rotates round-robin over controller ids, so every
  // controller is refreshed equally often — just less often than the pings.
  for (int i = 0; i < fanout; ++i)
    deliver_gossip((fanout_cursor_ + i) % n, node);
  fanout_cursor_ = (fanout_cursor_ + fanout) % n;
}

void ControlPlane::on_node_view_reset(NodeId node) {
  if (caches_.empty()) return;
  reset_floor_[static_cast<size_t>(node)] = host_.queue().now();
  for (auto& cache : caches_) cache[static_cast<size_t>(node)] = {};
  for (auto& bits : occupied_) bits.set(static_cast<size_t>(node), false);
}

const core::PoolStatus* ControlPlane::view(NodeId node, int controller) const {
  if (caches_.empty()) return nullptr;
  return &caches_[static_cast<size_t>(controller)][static_cast<size_t>(node)];
}

const util::IdBitset* ControlPlane::occupied(int controller) const {
  if (controller < 0 || static_cast<size_t>(controller) >= occupied_.size())
    return nullptr;
  return &occupied_[static_cast<size_t>(controller)];
}

void ControlPlane::flip_occupied_for_audit_test(int controller, NodeId node) {
  util::IdBitset& bits = occupied_.at(static_cast<size_t>(controller));
  bits.set(static_cast<size_t>(node), !bits.test(static_cast<size_t>(node)));
}

void ControlPlane::on_admit(Invocation& inv) {
  // Deterministic catalog sharding: front end `func % N` owns the function.
  inv.controller = static_cast<int>(
      inv.func % static_cast<FunctionId>(cfg_.num_controllers));
  ++stats_.controllers[static_cast<size_t>(inv.controller)].admitted;
}

void ControlPlane::on_enqueued(const Invocation& inv) {
  if (cfg_.num_controllers <= 1) return;
  const auto c = static_cast<size_t>(inv.controller);
  ControllerStats& cs = stats_.controllers[c];
  cs.peak_queue_depth = std::max(cs.peak_queue_depth, ++depth_[c]);
  maybe_steal();
}

void ControlPlane::on_dequeued(const Invocation& inv) {
  // A queued invocation's owner is the controller whose depth counts it: a
  // steal moves both together.
  if (cfg_.num_controllers > 1) --depth_[static_cast<size_t>(inv.controller)];
}

void ControlPlane::on_decision(const Invocation& inv, NodeId first_choice,
                               bool placed) {
  ControllerStats& cs = stats_.controllers[static_cast<size_t>(inv.controller)];
  ++cs.decisions;
  // A conflict is a stale-view choice that ground truth rejected at commit
  // time (dead node, draining node, or the reservation no longer fits). The
  // resolution is always the deterministic reject-and-requeue park path.
  if (!placed && first_choice != kNoNode) ++cs.conflicts;
  if (first_choice == kNoNode || caches_.empty()) return;
  const SimTime age =
      host_.queue().now() - caches_[static_cast<size_t>(inv.controller)]
                                   [static_cast<size_t>(first_choice)]
                                       .taken_at;
  ++cs.staleness_samples;
  cs.staleness_sum += age;
  if (age > cs.staleness_max) cs.staleness_max = age;
}

void ControlPlane::maybe_steal() {
  const int n = cfg_.num_controllers;
  if (n <= 1) return;
  for (;;) {
    // Deepest victim above the watermark (ties: lowest controller id).
    int victim = -1;
    long deepest = cfg_.steal_watermark;
    for (int c = 0; c < n; ++c)
      if (depth_[static_cast<size_t>(c)] > deepest) {
        deepest = depth_[static_cast<size_t>(c)];
        victim = c;
      }
    if (victim < 0) return;
    // First idle thief in ascending controller-id order — the fixed order
    // that keeps stealing deterministic for any controller count.
    int thief = -1;
    for (int c = 0; c < n; ++c)
      if (depth_[static_cast<size_t>(c)] == 0) {
        thief = c;
        break;
      }
    if (thief < 0) return;
    // Steal at most half the depth difference: the post-steal thief stays no
    // deeper than the post-steal victim, so every batch strictly decreases
    // the sum of squared queue depths — the pass terminates and can never
    // ping-pong one invocation between an overloaded and an idle controller.
    const long diff =
        depth_[static_cast<size_t>(victim)] - depth_[static_cast<size_t>(thief)];
    const long quota = std::min<long>(cfg_.steal_batch, diff / 2);
    if (quota <= 0) return;
    // The victim's oldest queued invocations are the first of its own that
    // the decision barriers will reach: each barrier pops the front of
    // every shard it batches, so read the shard queues position-major —
    // position 0 of shards 0..S-1, then position 1, and so on.
    const std::vector<std::deque<InvocationId>>& queues =
        host_.controller().shard_queues();
    long moved = 0;
    for (size_t pos = 0; moved < quota; ++pos) {
      bool any = false;
      for (const std::deque<InvocationId>& q : queues) {
        if (pos >= q.size()) continue;
        any = true;
        Invocation& inv = host_.invocation(q[pos]);
        if (inv.controller != victim) continue;
        // Re-stamp ONLY the owning controller: which cached view the
        // decision reads and where it is attributed. The engine-level
        // shard, the queue position and every event time are untouched, so
        // RunMetrics stay bit-identical across controller counts.
        inv.controller = thief;
        if (++moved == quota) break;
      }
      if (!any) break;
    }
    LIBRA_AUDIT_CHECK(moved == quota,
                      "controller " << victim << " counts " << deepest
                                    << " queued invocations, but a steal of "
                                    << quota << " found only " << moved
                                    << " in the shard queues");
    if (moved == 0) return;  // reached only past a suppressed audit failure
    depth_[static_cast<size_t>(victim)] -= moved;
    depth_[static_cast<size_t>(thief)] += moved;
    stats_.controllers[static_cast<size_t>(thief)].steals_in += moved;
    stats_.controllers[static_cast<size_t>(victim)].steals_out += moved;
    ++stats_.steal_batches;
    stats_.total_stolen += moved;
    ControllerStats& ts = stats_.controllers[static_cast<size_t>(thief)];
    ts.peak_queue_depth =
        std::max(ts.peak_queue_depth, depth_[static_cast<size_t>(thief)]);
  }
}

}  // namespace libra::sim::ctrl
