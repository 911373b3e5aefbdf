// A cluster without an engine, for driving the schedulers directly: Fleet
// holds n random nodes attached to one capacity index, FleetApi exposes them
// through sim::EngineApi with a suspected-down set, the index root as
// max_shard_free and, optionally, per-controller pool-view caches with their
// occupancy bits. Shared by the capacity-index and coverage-candidate tests.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/pool_status.h"
#include "sim/execution_model.h"
#include "sim/node.h"
#include "sim/policy.h"
#include "util/id_bitset.h"
#include "util/rng.h"

namespace libra::test {

using sim::NodeId;
using sim::Resources;
using sim::ShardId;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

inline bool same_bits(const Resources& a, const Resources& b) {
  return std::bit_cast<uint64_t>(a.cpu) == std::bit_cast<uint64_t>(b.cpu) &&
         std::bit_cast<uint64_t>(a.mem) == std::bit_cast<uint64_t>(b.mem);
}

/// n nodes of random capacity (0.5–32 cores, 128 MB–32 GB) attached to one
/// index. Not movable: every node points at `index`.
struct Fleet {
  sim::CapacityIndex index;
  std::vector<sim::Node> nodes;

  Fleet(size_t n, int shards, util::Rng& rng) : index(n, shards) {
    nodes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Resources cap{0.5 * static_cast<double>(rng.uniform_int(1, 64)),
                          128.0 * static_cast<double>(rng.uniform_int(1, 256))};
      nodes.emplace_back(static_cast<NodeId>(i), cap, shards);
      nodes.back().set_capacity_index(&index);
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The largest free slice of `shard` over the nodes, per axis.
  Resources brute_max(ShardId shard) const {
    Resources m{-kInf, -kInf};
    for (const auto& node : nodes) m = Resources::max(m, node.shard_free(shard));
    return m;
  }

  ::testing::AssertionResult roots_exact() const {
    for (ShardId s = 0; s < index.num_shards(); ++s) {
      const Resources root = index.max(s);
      const Resources want = brute_max(s);
      if (!same_bits(root, want))
        return ::testing::AssertionFailure()
               << "shard " << s << ": root " << root.to_string()
               << " != brute-force max " << want.to_string();
    }
    return ::testing::AssertionSuccess();
  }
};

/// One set of pool views, indexed by node id, and the ids of those holding
/// an entry: a controller's cache or a policy's snapshots.
struct PoolViews {
  std::vector<core::PoolStatus> statuses;
  util::IdBitset occupied;

  explicit PoolViews(size_t n) : statuses(n), occupied(n) {}
  void set(size_t node, core::PoolStatus status) {
    occupied.set(node, !status.entries.empty());
    statuses[node] = std::move(status);
  }
};

/// EngineApi over a Fleet: its nodes, a suspected-down set, and the index
/// root as max_shard_free. Counts the health-view probes, which a scan makes
/// for every node it considers. With controller views set it is a
/// multi-controller plane: controller c reads (*views)[c].
class FleetApi final : public sim::EngineApi {
 public:
  explicit FleetApi(Fleet& fleet)
      : fleet_(fleet), suspected_(fleet.nodes.size(), 0) {}

  sim::SimTime now() const override { return 10.0; }
  const std::vector<sim::Node>& nodes() const override { return fleet_.nodes; }
  sim::Node& node(NodeId id) override {
    return fleet_.nodes.at(static_cast<size_t>(id));
  }
  sim::Invocation& invocation(sim::InvocationId) override {
    throw std::out_of_range("FleetApi: no invocation records");
  }
  bool invocation_alive(sim::InvocationId) const override { return false; }
  const sim::ExecutionModel& exec_model() const override { return exec_; }
  void update_effective(sim::InvocationId, const Resources&) override {}
  void sync_accounting(sim::InvocationId) override {}
  Resources observed_usage(sim::InvocationId) const override { return {}; }
  Resources observed_peak(sim::InvocationId) const override { return {}; }
  bool node_suspected_down(NodeId id) const override {
    ++probes;
    return suspected_[static_cast<size_t>(id)] != 0;
  }
  Resources max_shard_free(ShardId shard) const override {
    return fleet_.index.max(shard);
  }
  const std::vector<NodeId>& touched_nodes() const override { return none_; }
  const std::vector<sim::InvocationId>& finalized_ids() const override {
    return finalized_;
  }
  const core::PoolStatus* controller_pool_view(NodeId node,
                                               int controller) const override {
    if (views_ == nullptr) return nullptr;
    ++view_reads;
    return &(*views_)[static_cast<size_t>(controller)]
                .statuses[static_cast<size_t>(node)];
  }
  const util::IdBitset* controller_occupied_views(
      int controller) const override {
    if (views_ == nullptr || !view_bits_) return nullptr;
    return &(*views_)[static_cast<size_t>(controller)].occupied;
  }

  void set_suspected(size_t node, bool suspected) {
    suspected_[node] = suspected ? 1 : 0;
  }
  /// Per-controller caches (nullptr: a transparent plane). Without `bits`
  /// the api keeps no occupancy sets (the EngineApi default).
  void set_controller_views(const std::vector<PoolViews>* views,
                            bool bits = true) {
    views_ = views;
    view_bits_ = bits;
  }

  mutable long probes = 0;
  mutable long view_reads = 0;

 private:
  Fleet& fleet_;
  std::vector<char> suspected_;
  const std::vector<PoolViews>* views_ = nullptr;
  bool view_bits_ = true;
  std::vector<NodeId> none_;
  std::vector<sim::InvocationId> finalized_;
  sim::ExecutionModel exec_;
};

}  // namespace libra::test
