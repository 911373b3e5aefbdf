#include "sim/cluster_state.h"

#include <algorithm>

#include "sim/engine.h"

namespace libra::sim {

ClusterState::ClusterState(Engine& host)
    : host_(host),
      touched_(host.config().node_capacities.size()),
      capacity_(host.config().node_capacities.size(),
                host.config().num_shards),
      ping_lane_(host.queue().add_fifo_lane()) {
  const EngineConfig& cfg = host_.config();
  nodes_.reserve(cfg.node_capacities.size());
  for (size_t i = 0; i < cfg.node_capacities.size(); ++i) {
    nodes_.emplace_back(static_cast<NodeId>(i), cfg.node_capacities[i],
                        cfg.num_shards, cfg.container);
    nodes_.back().set_touch_log(&touched_);
    nodes_.back().set_capacity_index(&capacity_);
    host_.metrics().total_capacity += cfg.node_capacities[i];
  }
  draining_until_.assign(nodes_.size(), 0.0);
  placed_.resize(nodes_.size());
}

void ClusterState::insert_placed(InvocationId id, NodeId node) {
  touched_.mark(node);
  auto& list = placed_[static_cast<size_t>(node)];
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it == list.end() || *it != id) list.insert(it, id);
}

void ClusterState::erase_placed(InvocationId id, NodeId node) {
  touched_.mark(node);
  auto& list = placed_[static_cast<size_t>(node)];
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it != list.end() && *it == id) list.erase(it);
}

void ClusterState::start_health_pings(SimTime first_arrival) {
  down_since_.assign(nodes_.size(), 0.0);
  last_ping_delivered_.assign(nodes_.size(), first_arrival);
  // Health pings per node, staggered to avoid synchronized bursts.
  for (const auto& node : nodes_) {
    const NodeId nid = node.id();
    const double offset = host_.config().health_ping_interval *
                          (static_cast<double>(nid) /
                           static_cast<double>(nodes_.size()));
    last_ping_delivered_[static_cast<size_t>(nid)] = first_arrival + offset;
    // Node order is time order: the lane fills sorted.
    host_.queue().schedule_fifo(ping_lane_, first_arrival + offset,
                                [this, nid] { health_ping(nid); });
  }
}

bool ClusterState::node_suspected_down(NodeId id) const {
  if (!host_.fault_active()) return false;
  const auto idx = static_cast<size_t>(id);
  if (idx >= last_ping_delivered_.size()) return false;
  return host_.queue().now() - last_ping_delivered_[idx] >
         host_.config().suspect_after_missed_pings *
             host_.config().health_ping_interval;
}

void ClusterState::health_ping(NodeId node_id) {
  if (!node(node_id).up()) {
    // A dead node sends nothing; the controller's view goes stale until the
    // node recovers and its next ping is delivered.
  } else if (host_.fault_active() &&
             host_.fault()->drop_health_ping(node_id, host_.queue().now())) {
    ++host_.metrics().dropped_health_pings;
  } else {
    const double delay =
        host_.fault_active()
            ? host_.fault()->health_ping_delay(node_id, host_.queue().now())
            : 0.0;
    if (delay > 0.0) {
      ++host_.metrics().delayed_health_pings;
      host_.queue().schedule_after(delay, [this, node_id] {
        if (!node(node_id).up()) return;  // died while the ping was in flight
        last_ping_delivered_[static_cast<size_t>(node_id)] =
            host_.queue().now();
        host_.policy().on_health_ping(node_id, host_.api());
        // Gossip rides on delivered pings: controllers refresh (or schedule
        // refreshes of) their cached pool views from the policy's snapshot.
        host_.control().on_gossip(node_id);
      });
    } else {
      last_ping_delivered_[static_cast<size_t>(node_id)] = host_.queue().now();
      host_.policy().on_health_ping(node_id, host_.api());
      host_.control().on_gossip(node_id);
    }
  }
  if (host_.fault_active()) {
    // Parked invocations are normally retried when a completion frees
    // capacity; under churn that signal can never come (everything on the
    // node died), so the ping loop doubles as a recovery sweep.
    host_.controller().expire_overdue_waiting();
    host_.controller().retry_waiting();
  }
  if (host_.run_live()) {
    host_.queue().schedule_fifo(
        ping_lane_, host_.queue().now() + host_.config().health_ping_interval,
        [this, node_id] { health_ping(node_id); });
  }
  host_.notify_audit(EngineEventKind::kHealthPing, kNoInvocation, node_id);
}

void ClusterState::on_node_down(NodeId node_id) {
  Node& n = node(node_id);
  if (!n.up()) return;  // churn timeline is coalesced, but stay idempotent
  ++host_.metrics().node_crashes;
  down_since_[static_cast<size_t>(node_id)] = host_.queue().now();
  // Policy first (harvest-safety invariant): it must preemptively release
  // every pool entry and revoke every grant tied to this node while the
  // invocation state is still intact.
  host_.policy().on_node_down(node_id, host_.api());
  n.set_up(false);
  // A copy in id order: each kill erases its id from the node's list.
  const std::vector<InvocationId> victims = placed_on(node_id);
  for (InvocationId id : victims) host_.lifecycle().kill_invocation(id);
  n.containers().clear();
  n.check_quiescent();
  record_series();
  host_.notify_audit(EngineEventKind::kNodeDown, kNoInvocation, node_id);
}

void ClusterState::on_drain_notice(NodeId node_id, SimTime down_at) {
  Node& n = node(node_id);
  // A merged churn timeline can put an unrelated crash before the spot
  // outage this notice warned about; a dead node has nothing left to drain.
  if (!n.up()) return;
  ++host_.metrics().drain_notices;
  draining_until_[static_cast<size_t>(node_id)] = down_at;
  // Policy first (harvest-safety invariant, mirroring on_node_down): a
  // platform honoring the notice pulls the node's pool inventory back while
  // every source/borrower invocation is still intact.
  host_.policy().on_drain_notice(node_id, down_at, host_.api());
  // Controllers must forget cached pool views of a draining node in the same
  // instant the policy clears its own snapshot, or a stale cache would keep
  // advertising pool capacity the drain just pulled back.
  host_.control().on_node_view_reset(node_id);
  // The node agent then migrates everything off the departing node. These
  // are graceful, budget-free evictions: the platform was warned, so they do
  // not consume max_fault_retries (see InvocationLifecycle::drain_invocation).
  // A copy in id order: each drain erases its id from the node's list.
  const std::vector<InvocationId> victims = placed_on(node_id);
  for (InvocationId id : victims) host_.lifecycle().drain_invocation(id);
  record_series();
  host_.notify_audit(EngineEventKind::kDrainNotice, kNoInvocation, node_id);
}

bool ClusterState::node_draining(NodeId id) const {
  const auto idx = static_cast<size_t>(id);
  return idx < draining_until_.size() &&
         host_.queue().now() < draining_until_[idx];
}

void ClusterState::on_node_up(NodeId node_id) {
  Node& n = node(node_id);
  if (n.up()) return;
  n.set_up(true);
  ++host_.metrics().node_recoveries;
  host_.metrics().recovery_latencies.push_back(
      host_.queue().now() - down_since_[static_cast<size_t>(node_id)]);
  // The node rejoins empty. The controller only learns it is back when the
  // next health ping is delivered — last_ping_delivered_ is left stale on
  // purpose, so schedulers keep avoiding it for up to one ping interval.
  host_.policy().on_node_up(node_id, host_.api());
  // Mirror the policy's snapshot clear (the node rejoins empty); cached views
  // from before the crash must not survive the recovery.
  host_.control().on_node_view_reset(node_id);
  host_.controller().retry_waiting();
  host_.notify_audit(EngineEventKind::kNodeUp, kNoInvocation, node_id);
}

void ClusterState::refresh_usage(Invocation& inv, bool stopping) {
  if (inv.usage_contrib_present) {
    used_now_ -= inv.usage_contrib;
    inv.usage_contrib = Resources{0.0, 0.0};
    inv.usage_contrib_present = false;
  }
  if (!stopping && (inv.running || !inv.done)) {
    const ExecutionModel& exec = host_.api().exec_model();
    const Resources contrib =
        inv.running ? Resources{exec.cpu_usage(inv.effective, inv.truth),
                                std::min(inv.effective.mem,
                                         inv.truth.demand.mem)}
                    : Resources{0.0, 0.0};
    if (!contrib.is_zero()) {
      used_now_ += contrib;
      inv.usage_contrib = contrib;
      inv.usage_contrib_present = true;
    }
  }
  used_now_ = used_now_.clamped_non_negative();
}

void ClusterState::record_series() {
  const SimTime t = host_.queue().now();
  const double res = host_.config().series_resolution;
  if (res > 0.0 && last_series_at_ >= 0.0 && t < last_series_at_ + res)
    return;
  last_series_at_ = t;
  RunMetrics& m = host_.metrics();
  m.cpu_used.record(t, used_now_.cpu);
  m.mem_used.record(t, used_now_.mem);
  Resources alloc;
  for (const auto& n : nodes_) alloc += n.allocated();
  m.cpu_allocated.record(t, alloc.cpu);
  m.mem_allocated.record(t, alloc.mem);
}

}  // namespace libra::sim
