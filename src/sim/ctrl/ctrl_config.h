// Knobs of the multi-controller control plane (DESIGN.md §5k): how many
// front-end controllers shard the function catalog, how their pool-status
// caches are fed, and when idle controllers steal queued work from
// overloaded peers. The defaults are the TRANSPARENT configuration: one
// controller, pass-through gossip — the engine behaves exactly like the
// single-controller seed and reproduces the golden replay digests.
#pragma once

namespace libra::sim::ctrl {

struct ControlPlaneConfig {
  /// Front-end controllers. Each owns the catalog shard
  /// `func % num_controllers` with its own admission accounting and
  /// pool-status cache. 1 = the classic single-controller engine.
  int num_controllers = 1;

  /// Pool-view refresh model. 0 (default): pass-through — every delivered
  /// health ping refreshes the controllers' caches immediately, so all
  /// controllers share the fate of the node's pings and caches stay
  /// identical across controller counts (the digest-identity invariant).
  /// > 0: each controller refreshes its whole view from the piggybacked
  /// snapshots only every `gossip_period` seconds (staggered by controller
  /// id), so views are up to one period staler than the last ping.
  double gossip_period = 0.0;

  /// Pass-through fan-out: how many controllers a delivered ping refreshes,
  /// rotating round-robin over controller ids. 0 (default) = all of them.
  /// < num_controllers makes views diverge between controllers — an opt-in
  /// divergence knob, excluded from the digest-identity gates.
  int gossip_fanout = 0;

  /// Work stealing: a controller whose admission queue is deeper than
  /// `steal_watermark` is a victim; idle controllers (empty queue), visited
  /// in ascending controller-id order, each take up to `steal_batch` of the
  /// victim's oldest queued invocations — the first of them the decision
  /// barriers will reach (DESIGN.md §5k, "Steal order") — capped at half
  /// the depth difference, so a steal pass always strictly rebalances and
  /// terminates.
  /// Stealing re-stamps only the owning controller (cache attribution),
  /// never the engine-level shard or any event timing — RunMetrics stay
  /// bit-identical across controller counts.
  long steal_watermark = 8;
  static constexpr int steal_batch = 4;

  /// Throws std::invalid_argument naming the offending knob (NaN-proof,
  /// same contract as EngineConfig::validate which calls this).
  void validate() const;
};

static_assert(ControlPlaneConfig::steal_batch >= 1);

}  // namespace libra::sim::ctrl
