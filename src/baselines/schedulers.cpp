#include "baselines/schedulers.h"

#include <limits>

namespace libra::baselines {

using core::no_node_fits;
using core::shard_feasible;
using sim::EngineApi;
using sim::Invocation;
using sim::kNoNode;
using sim::NodeId;

// Each scan first asks the capacity index: on a full shard it returns
// kNoNode without walking, leaving the state a failed scan leaves (RR's
// cursor moves only on success).

NodeId RoundRobinScheduler::select(Invocation& inv, EngineApi& api) {
  if (no_node_fits(inv, api)) return kNoNode;
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

NodeId JsqScheduler::select(Invocation& inv, EngineApi& api) {
  if (no_node_fits(inv, api)) return kNoNode;
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

NodeId MwsScheduler::select(Invocation& inv, EngineApi& api) {
  if (no_node_fits(inv, api)) return kNoNode;
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

}  // namespace libra::baselines
