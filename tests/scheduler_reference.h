// The node-selection scans before the free-capacity index (DESIGN.md §5l),
// kept verbatim as reference models: StickyHashState::pick with its hashed
// salt map, CoverageScheduler's select over coverage_pick, and the Round
// Robin, JSQ and MWS scans. Each walks the cluster on every call,
// including when no node can fit. CapacityIndexScan.* requires the
// schedulers to return the same picks and leave the same salt and cursor.
// Coverage, which scores every feasible node, is also the scan the
// candidate-set pick replaced (DESIGN.md §5l): CoverageCandidates.* and
// CoverageCandidatesFuzz.* hold the pick and Libra's digests against it.
#pragma once

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "core/coverage.h"
#include "core/pool_status.h"
#include "core/scheduler.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace libra::reference {

using core::shard_feasible;
using sim::EngineApi;
using sim::Invocation;
using sim::kNoNode;
using sim::NodeId;

class StickyHash {
 public:
  NodeId pick(Invocation& inv, EngineApi& api) {
    const auto& nodes = api.nodes();
    const auto n = static_cast<uint64_t>(nodes.size());
    int& salt = salt_[inv.func];
    // Advance the function's sticky target until a feasible node is found;
    // the new target persists so upcoming invocations follow (§6.3).
    for (size_t attempt = 0; attempt < nodes.size(); ++attempt) {
      const uint64_t h = util::mix64(
          static_cast<uint64_t>(inv.func) * 0x9e3779b97f4a7c15ULL +
          static_cast<uint64_t>(salt));
      const auto candidate = static_cast<NodeId>(h % n);
      if (shard_feasible(nodes[static_cast<size_t>(candidate)], inv, api))
        return candidate;
      ++salt;
    }
    return kNoNode;
  }

  int salt(sim::FunctionId func) const {
    const auto it = salt_.find(func);
    return it == salt_.end() ? 0 : it->second;
  }

 private:
  std::unordered_map<sim::FunctionId, int> salt_;
};

class Coverage {
 public:
  Coverage(const core::PoolStatusProvider* provider, double alpha)
      : provider_(provider), alpha_(alpha) {}

  NodeId select(Invocation& inv, EngineApi& api) {
    if (!inv.accelerable()) return hash_.pick(inv, api);
    const NodeId best = coverage_pick(inv, api);
    if (best == kNoNode) return hash_.pick(inv, api);
    return best;
  }

  const StickyHash& sticky() const { return hash_; }

 private:
  NodeId coverage_pick(const Invocation& inv, const EngineApi& api) const {
    // Extra demand beyond the user allocation, and the window it is needed
    // for.
    const sim::Resources extra =
        (inv.pred_demand - inv.user_alloc).clamped_non_negative();
    sim::DemandProfile pred_profile;
    pred_profile.demand = inv.pred_demand;
    pred_profile.work = inv.pred_duration * std::max(1.0, inv.pred_demand.cpu);
    pred_profile.min_mem = 0.0;
    const double window = api.exec_model().exec_time(
        sim::Resources::max(inv.user_alloc, inv.pred_demand), pred_profile);

    static const core::PoolStatus kEmpty;
    NodeId best = kNoNode;
    double best_score = -1.0;
    for (const auto& node : api.nodes()) {
      if (!shard_feasible(node, inv, api)) continue;
      const core::PoolStatus* cached =
          api.controller_pool_view(node.id(), inv.controller);
      const core::PoolStatus& status =
          cached ? *cached
                 : (provider_ ? provider_->pool_status(node.id()) : kEmpty);
      const auto cov =
          core::demand_coverage(status, api.now(), extra, window);
      const double score = cov.weighted(alpha_);
      if (score > best_score + 1e-12) {
        best_score = score;
        best = node.id();
      }
    }
    return best;
  }

  const core::PoolStatusProvider* provider_;
  double alpha_;
  StickyHash hash_;
};

class RoundRobin {
 public:
  NodeId select(Invocation& inv, EngineApi& api) {
    const auto& nodes = api.nodes();
    for (size_t attempt = 0; attempt < nodes.size(); ++attempt) {
      const size_t idx = (cursor_ + attempt) % nodes.size();
      if (shard_feasible(nodes[idx], inv, api)) {
        cursor_ = idx + 1;
        return nodes[idx].id();
      }
    }
    return kNoNode;
  }
  size_t cursor() const { return cursor_; }

 private:
  size_t cursor_ = 0;
};

inline NodeId jsq_select(Invocation& inv, EngineApi& api) {
  NodeId best = kNoNode;
  int best_queue = std::numeric_limits<int>::max();
  for (const auto& node : api.nodes()) {
    if (!shard_feasible(node, inv, api)) continue;
    if (node.running_invocations() < best_queue) {
      best_queue = node.running_invocations();
      best = node.id();
    }
  }
  return best;
}

inline NodeId mws_select(Invocation& inv, EngineApi& api) {
  NodeId best = kNoNode;
  double best_pressure = std::numeric_limits<double>::infinity();
  for (const auto& node : api.nodes()) {
    if (!shard_feasible(node, inv, api)) continue;
    const auto& cap = node.capacity();
    const auto& used = node.allocated();
    const double pressure =
        std::max(cap.cpu > 0 ? used.cpu / cap.cpu : 0.0,
                 cap.mem > 0 ? used.mem / cap.mem : 0.0);
    if (pressure < best_pressure) {
      best_pressure = pressure;
      best = node.id();
    }
  }
  return best;
}

}  // namespace libra::reference
