// Worker node (OpenWhisk invoker) capacity accounting. Admission reserves the
// invocation's *user-defined* allocation against the node (harvesting
// reassigns slack inside those reservations — it never changes what the node
// has promised). Capacity is horizontally sharded across schedulers (§6.4):
// shard s may only reserve from its 1/K slice, while pool status and demand
// coverage are observed for the node as a whole.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sim/container_pool.h"
#include "sim/types.h"

namespace libra::sim {

/// The nodes mutated since the last clear(), each listed once, in first-touch
/// order. A per-node flag drops repeat marks, so the list never outgrows the
/// node count; once both vectors cover the largest id marked, mark() never
/// allocates. ClusterState owns the run's log (sized to the fleet up front);
/// the invariant auditor reads it through EngineApi::touched_nodes() to
/// re-check only what an event changed, and keeps its own log of what is
/// pending between sampled checks.
class TouchLog {
 public:
  explicit TouchLog(size_t num_nodes = 0) : flag_(num_nodes, 0) {
    ids_.reserve(num_nodes);
  }
  void mark(NodeId id) {
    const auto i = static_cast<size_t>(id);
    if (i >= flag_.size()) {
      flag_.resize(i + 1, 0);
      ids_.reserve(flag_.size());
    }
    if (flag_[i]) return;
    flag_[i] = 1;
    ids_.push_back(id);
  }
  const std::vector<NodeId>& ids() const { return ids_; }
  void clear() {
    for (const NodeId id : ids_) flag_[static_cast<size_t>(id)] = 0;
    ids_.clear();
  }

 private:
  std::vector<char> flag_;
  std::vector<NodeId> ids_;
};

/// The free-capacity index (DESIGN.md §5l): per shard, a max-tree over the
/// nodes' free slices (Node::shard_free) that keeps the largest free CPU and,
/// separately, the largest free memory. Its root bounds every node's slice
/// from above on both axes, and Resources::fits_in is monotone in the free
/// values, so an allocation that does not fit the root fits no node.
/// ClusterState owns the run's index, sized once for the fleet; a node's
/// try_reserve and release, the only writers of its shard reservations,
/// rewrite its leaf and climb only while a parent's value changes, so an
/// update never allocates and costs O(log n) at worst.
class CapacityIndex {
 public:
  /// Every leaf starts at -inf on both axes (no capacity) until its node is
  /// attached (Node::set_capacity_index).
  explicit CapacityIndex(size_t num_nodes = 0, int num_shards = 0);

  size_t num_nodes() const { return n_; }
  int num_shards() const { return num_shards_; }

  /// Writes node `id`'s free slice of `shard` and repairs its path to the
  /// root.
  void update(NodeId id, ShardId shard, const Resources& free);

  /// {largest free cpu, largest free mem} over every node's slice of
  /// `shard`; -inf on both axes for an empty fleet.
  Resources max(ShardId shard) const {
    if (n_ == 0) {
      const double none = -std::numeric_limits<double>::infinity();
      return {none, none};
    }
    return tree_.at(static_cast<size_t>(shard) * 2 * n_ + 1);
  }

 private:
  size_t n_ = 0;
  int num_shards_ = 0;
  /// Shard-major, 2n entries per shard: an implicit binary heap with the
  /// root at offset 1, node i's leaf at offset n + i and offset 0 unused.
  std::vector<Resources> tree_;
};

class Node {
 public:
  Node(NodeId id, Resources capacity, int num_shards,
       ContainerPoolConfig pool_cfg = {});

  NodeId id() const { return id_; }
  const Resources& capacity() const { return capacity_; }

  /// Capacity slice owned by one scheduler shard.
  Resources shard_capacity() const { return shard_capacity_; }

  /// Free resources within one shard's slice.
  Resources shard_free(ShardId shard) const;

  /// Whole-node free resources (all shards).
  Resources free() const { return capacity_ - allocated_total_; }

  /// Whole-node reserved resources.
  const Resources& allocated() const { return allocated_total_; }

  /// Attempts to reserve `r` from the shard's slice; false if it won't fit.
  /// Every mutator below marks the node in the attached TouchLog (a
  /// successful reservation only). try_reserve (on success) and release also
  /// rewrite the node's leaf of the shard in the attached CapacityIndex.
  bool try_reserve(ShardId shard, const Resources& r);

  /// Releases a prior reservation back to the shard's slice.
  void release(ShardId shard, const Resources& r);

  int running_invocations() const { return running_; }
  void invocation_started() {
    ++running_;
    touch();
  }
  /// Guarded against underflow: finishing with nothing running means the
  /// engine double-released an invocation.
  void invocation_finished();

  /// Liveness under fault injection. A down node accepts no reservations;
  /// the engine kills its invocations and clears its warm containers when it
  /// crashes, and brings it back empty on recovery.
  bool up() const { return up_; }
  void set_up(bool up) {
    up_ = up;
    touch();
  }

  /// Attaches the log the mutators mark (nullptr detaches). The log must
  /// outlive the node; standalone nodes keep none.
  void set_touch_log(TouchLog* log) { touch_log_ = log; }

  /// Attaches the capacity index whose leaves for this node try_reserve and
  /// release rewrite, and writes the node's current free slices into it
  /// (nullptr detaches). The index must cover this node's id and shard
  /// count, and outlive the node; standalone nodes keep none.
  void set_capacity_index(CapacityIndex* index);

  /// Audits reservation/release symmetry: after the engine reaps a crashed
  /// node, nothing may remain reserved or running. Always compiled in; a
  /// violation aborts with a LIBRA_AUDIT_CHECK diagnostic naming the node,
  /// its allocated totals and the surviving per-shard shares.
  void check_quiescent() const;

  ContainerPool& containers() { return containers_; }
  const ContainerPool& containers() const { return containers_; }

  int num_shards() const { return num_shards_; }

 private:
  void touch() {
    if (touch_log_ != nullptr) touch_log_->mark(id_);
  }
  /// Writes the shard's free slice, exactly as shard_free computes it, into
  /// the attached index.
  void reindex(ShardId shard, const Resources& used) {
    if (capacity_index_ != nullptr)
      capacity_index_->update(id_, shard, shard_capacity() - used);
  }

  NodeId id_;
  Resources capacity_;
  int num_shards_;
  Resources shard_capacity_;  // capacity_ / num_shards_, divided once
  std::vector<Resources> shard_allocated_;
  Resources allocated_total_;
  int running_ = 0;
  bool up_ = true;
  TouchLog* touch_log_ = nullptr;
  CapacityIndex* capacity_index_ = nullptr;
  ContainerPool containers_;
};

}  // namespace libra::sim
