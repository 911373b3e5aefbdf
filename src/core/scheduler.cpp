#include "core/scheduler.h"

#include <stdexcept>

#include "core/coverage.h"
#include "util/rng.h"

namespace libra::core {

using sim::EngineApi;
using sim::Invocation;
using sim::kNoNode;
using sim::NodeId;

bool shard_feasible(const sim::Node& node, const Invocation& inv) {
  return inv.user_alloc.fits_in(node.shard_free(inv.shard));
}

bool shard_feasible(const sim::Node& node, const Invocation& inv,
                    const sim::EngineApi& api) {
  return !api.node_suspected_down(node.id()) && shard_feasible(node, inv);
}

bool no_node_fits(const Invocation& inv, const sim::EngineApi& api) {
  return !inv.user_alloc.fits_in(api.max_shard_free(inv.shard));
}

int& StickyHashState::salt_slot(sim::FunctionId func) {
  if (func < 0)
    throw std::out_of_range("StickyHashState: negative function id " +
                            std::to_string(func));
  const auto i = static_cast<size_t>(func);
  if (i >= salt_.size()) salt_.resize(i + 1, 0);
  return salt_[i];
}

int StickyHashState::salt(sim::FunctionId func) const {
  const auto i = static_cast<size_t>(func);
  return func >= 0 && i < salt_.size() ? salt_[i] : 0;
}

NodeId StickyHashState::pick(Invocation& inv, EngineApi& api) {
  const auto& nodes = api.nodes();
  const auto n = static_cast<uint64_t>(nodes.size());
  int& salt = salt_slot(inv.func);
  // The salt wraps like two's complement, so n failed probes and one
  // `salt += n` leave the same value.
  auto advance = [&salt](uint64_t k) {
    salt = static_cast<int>(static_cast<uint32_t>(salt) +
                            static_cast<uint32_t>(k));
  };
  if (no_node_fits(inv, api)) {
    // The scan below would probe n nodes, find none feasible and advance
    // the salt once per probe.
    advance(n);
    return kNoNode;
  }
  // Advance the function's sticky target until a feasible node is found;
  // the new target persists so upcoming invocations follow (§6.3).
  for (size_t attempt = 0; attempt < nodes.size(); ++attempt) {
    const uint64_t h = util::mix64(
        static_cast<uint64_t>(inv.func) * 0x9e3779b97f4a7c15ULL +
        static_cast<uint64_t>(salt));
    const auto candidate = static_cast<NodeId>(h % n);
    if (shard_feasible(nodes[static_cast<size_t>(candidate)], inv, api))
      return candidate;
    advance(1);
  }
  return kNoNode;
}

CoverageScheduler::CoverageScheduler(const PoolStatusProvider* provider,
                                     double alpha)
    : provider_(provider), alpha_(alpha) {
  if (!(alpha >= 0.0 && alpha <= 1.0))
    throw std::invalid_argument(
        "CoverageScheduler: coverage alpha must be in [0, 1], got " +
        std::to_string(alpha));
}

NodeId CoverageScheduler::coverage_pick(const Invocation& inv,
                                        const sim::EngineApi& api) const {
  // On a full shard no node is feasible, so the scan would find none.
  if (no_node_fits(inv, api)) return kNoNode;
  const auto& nodes = api.nodes();
  if (nodes.empty()) return kNoNode;
  // Extra demand beyond the user allocation, and the window it is needed for.
  const sim::Resources extra =
      (inv.pred_demand - inv.user_alloc).clamped_non_negative();
  sim::DemandProfile pred_profile;
  pred_profile.demand = inv.pred_demand;
  pred_profile.work = inv.pred_duration * std::max(1.0, inv.pred_demand.cpu);
  pred_profile.min_mem = 0.0;
  const double window = api.exec_model().exec_time(
      sim::Resources::max(inv.user_alloc, inv.pred_demand), pred_profile);

  // Which views hold an entry: the owning controller's cache when it keeps
  // one (every node or none does), else the policy's snapshots. Null means
  // unknown, and every view counts as occupied.
  const util::IdBitset* occupied =
      api.controller_pool_view(nodes.front().id(), inv.controller) != nullptr
          ? api.controller_occupied_views(inv.controller)
          : (provider_ ? provider_->occupied_views() : nullptr);

  // Candidate set. Every empty view scores the same floor c0 (per axis, 1
  // without extra demand, else 0), and with alpha in [0, 1] every other
  // score is c0 or more, or NaN. Once one empty view has been scored,
  // c0 <= best_score + 1e-12 holds for good (the ratchet only rises), so no
  // later empty view can pass it: past the first feasible empty view only
  // the occupied views are scored, in id order (node ids are indices),
  // which returns exactly what the full scan did.
  static const PoolStatus kEmpty;
  NodeId best = kNoNode;
  double best_score = -1.0;
  bool floor_scored = false;
  for (size_t i = 0; i < nodes.size();
       i = floor_scored ? occupied->next(i + 1) : i + 1) {
    const sim::Node& node = nodes[i];
    if (!shard_feasible(node, inv, api)) continue;
    // Owning controller's gossip-fed cache first (src/sim/ctrl); fall back to
    // the policy's own piggybacked snapshot when the control plane is
    // transparent. Reference semantics either way — no per-decision copies.
    const PoolStatus* cached = api.controller_pool_view(node.id(), inv.controller);
    const PoolStatus& status =
        cached ? *cached
               : (provider_ ? provider_->pool_status(node.id()) : kEmpty);
    const auto cov = demand_coverage(status, api.now(), extra, window);
    const double score = cov.weighted(alpha_);
    if (score > best_score + 1e-12) {
      best_score = score;
      best = node.id();
    }
    if (occupied != nullptr && !occupied->test(i)) floor_scored = true;
  }
  return best;
}

NodeId CoverageScheduler::select(Invocation& inv, EngineApi& api) {
  if (!inv.accelerable()) return hash_.pick(inv, api);
  const NodeId best = coverage_pick(inv, api);
  if (best == kNoNode) return hash_.pick(inv, api);
  return best;
}

std::optional<NodeId> CoverageScheduler::speculate(
    const Invocation& inv, const sim::EngineApi& api) const {
  if (!inv.accelerable()) return std::nullopt;  // sticky hash mutates salt_
  const NodeId best = coverage_pick(inv, api);
  if (best == kNoNode) return std::nullopt;  // would fall back to the hash
  return best;
}

}  // namespace libra::core
