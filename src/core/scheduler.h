// Node-selection strategies (§6.3). The strategy only picks a node; harvest
// and acceleration decisions belong to the policy. Feasibility means the
// invocation's user-defined allocation fits the scheduler shard's slice of
// the node (§6.4 horizontal sharding).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/pool_status.h"
#include "sim/policy.h"

namespace libra::core {

class SchedulerStrategy {
 public:
  virtual ~SchedulerStrategy() = default;
  virtual std::string name() const = 0;
  /// Returns a feasible node for the invocation or sim::kNoNode.
  virtual sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) = 0;
};

using SchedulerPtr = std::shared_ptr<SchedulerStrategy>;

/// True when the node's shard slice can admit the user-defined allocation.
bool shard_feasible(const sim::Node& node, const sim::Invocation& inv);

/// Controller-side feasibility: shard capacity AND the node is not suspected
/// down (§6.4 health pings). Schedulers must use this overload — it works
/// from the deliberately stale ping-based health view, never ground truth.
bool shard_feasible(const sim::Node& node, const sim::Invocation& inv,
                    const sim::EngineApi& api);

/// True when the capacity index proves that no node's slice of the
/// invocation's shard can hold its user-defined allocation
/// (EngineApi::max_shard_free): O(1), sound, never complete. False means a
/// scan must look. Health suspicion only removes nodes, so the proof holds
/// for the controller-side overload of shard_feasible too.
bool no_node_fits(const sim::Invocation& inv, const sim::EngineApi& api);

/// OpenWhisk-style sticky hashing: invocations of a function go to the same
/// node (container reuse); when the target lacks capacity the hash advances
/// and upcoming invocations of the function follow (§6.3). The salt table is
/// shared scheduler-shard state — every decentralized shard advances the
/// same per-function target. It takes no lock: picks run only on the
/// single-threaded event loop (DESIGN.md §5l "The salt table").
class StickyHashState {
 public:
  /// Throws std::out_of_range on a negative function id.
  sim::NodeId pick(sim::Invocation& inv, sim::EngineApi& api);

  /// The function's current salt: 0 before its first pick.
  int salt(sim::FunctionId func) const;

 private:
  int& salt_slot(sim::FunctionId func);

  /// Indexed by function id (catalog ids are dense); grows on the first
  /// sight of a larger id.
  std::vector<int> salt_;
};

/// Libra's timeliness-aware greedy scheduler (§6.3):
///  * non-accelerable invocations -> sticky hash (container locality);
///  * accelerable invocations -> feasible node with the maximum weighted
///    demand coverage computed from the piggybacked pool snapshots.
class CoverageScheduler final : public SchedulerStrategy {
 public:
  /// Throws std::invalid_argument unless alpha is in [0, 1]: the pick skips
  /// empty views on the strength of both coverage weights being
  /// non-negative.
  CoverageScheduler(const PoolStatusProvider* provider, double alpha);

  std::string name() const override { return "libra-coverage"; }
  sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) override;

  /// Replaces the status provider. A policy that owns this scheduler is
  /// also its provider, so it binds itself once it exists.
  void bind(const PoolStatusProvider* provider) { provider_ = provider; }

  double alpha() const { return alpha_; }
  /// The sticky hash the non-accelerable and no-coverage paths fall back to.
  const StickyHashState& sticky() const { return hash_; }

 private:
  /// The pure greedy max-coverage pick behind select: the first feasible
  /// node, in id order, with the highest score. It scores the feasible
  /// nodes up to the first one whose view is empty, then only the occupied
  /// views (DESIGN.md §5l, "Coverage candidate set").
  sim::NodeId coverage_pick(const sim::Invocation& inv,
                            const sim::EngineApi& api) const;

  const PoolStatusProvider* provider_;
  double alpha_;
  StickyHashState hash_;
};

}  // namespace libra::core
