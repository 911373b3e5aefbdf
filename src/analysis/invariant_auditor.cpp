#include "analysis/invariant_auditor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <ostream>

#include "util/audit.h"

namespace libra::analysis {

using core::HarvestResourcePool;
using sim::InvocationId;
using sim::NodeId;
using sim::Resources;

namespace {

/// Absolute-plus-relative tolerance matching the pool's internal audits:
/// the ledgers are sums of O(thousands) of doubles.
bool near(double a, double b) {
  return std::abs(a - b) <= 1e-6 + 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Live and not terminal: the state every pool source and borrower must be
/// in.
bool in_flight(sim::EngineApi& api, InvocationId id) {
  return api.invocation_alive(id) && !api.invocation(id).done;
}

bool same_bits(const Resources& a, const Resources& b) {
  return std::bit_cast<uint64_t>(a.cpu) == std::bit_cast<uint64_t>(b.cpu) &&
         std::bit_cast<uint64_t>(a.mem) == std::bit_cast<uint64_t>(b.mem);
}

/// Names the owner of a set of pool views in a diagnostic: a controller's
/// cache, or the policy's own snapshots (controller -1).
struct ViewOwner {
  int controller;
};
std::ostream& operator<<(std::ostream& os, ViewOwner owner) {
  if (owner.controller < 0) return os << "the policy's";
  return os << "controller " << owner.controller << "'s";
}

/// Bit n of `bits` against view_of(n) for every node: set exactly when the
/// view holds an entry.
template <typename ViewOf>
void check_view_bits(size_t nodes, const util::IdBitset& bits,
                     ViewOf&& view_of, ViewOwner owner, const char* what) {
  for (size_t n = 0; n < nodes; ++n) {
    const size_t entries = view_of(static_cast<NodeId>(n)).entries.size();
    const bool bit = bits.test(n);
    LIBRA_AUDIT_CHECK(entries == 0 || bit,
                      "after " << what << ": " << owner << " pool view of node "
                               << n << " holds " << entries
                               << " entries but its occupancy bit is clear: "
                                  "coverage picks skip it");
    LIBRA_AUDIT_CHECK(entries != 0 || !bit,
                      "after " << what << ": " << owner << " pool view of node "
                               << n
                               << " is empty but its occupancy bit is set");
  }
}

}  // namespace

InvariantAuditor::InvariantAuditor(InvariantAuditorConfig cfg) : cfg_(cfg) {
  if (cfg_.every_n < 1) cfg_.every_n = 1;
  sample_countdown_ = cfg_.every_n - 1;  // the first sampled id is every_n
}

void InvariantAuditor::attach_policy(core::LibraPolicy* policy) {
  policy_ = policy;
  if (policy_) policy_->set_pool_listener(this);
}

void InvariantAuditor::check_conservation(const char* origin) {
  const auto& entries = snap_.entries;
  // Binary search below relies on the entry vector's ascending source order.
  for (size_t i = 1; i < entries.size(); ++i) {
    const bool ascending = entries[i - 1].source < entries[i].source;
    LIBRA_AUDIT_CHECK(ascending, origin << ": pool entries out of order: "
                                        << "source " << entries[i].source
                                        << " follows source "
                                        << entries[i - 1].source);
    if (!ascending) return;
  }
  // Outstanding grants aggregated per source entry, in grant order (the
  // same per-source summation order as a keyed accumulation); every grant
  // must trace back to a tracked source entry.
  lent_.assign(entries.size(), Resources{});
  for (const auto& b : snap_.borrows) {
    LIBRA_AUDIT_CHECK(b.amount.cpu >= 0.0 && b.amount.mem >= 0.0,
                      origin << ": negative grant from source " << b.source
                             << " to borrower " << b.borrower << " (cpu "
                             << b.amount.cpu << ", mem " << b.amount.mem
                             << ")");
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), b.source,
        [](const HarvestResourcePool::DebugEntry& e, InvocationId id) {
          return e.source < id;
        });
    const bool tracked = it != entries.end() && it->source == b.source;
    LIBRA_AUDIT_CHECK(tracked,
                      origin << ": outstanding grant references source "
                             << b.source
                             << " with no pool entry (completed or revoked)");
    if (tracked) lent_[static_cast<size_t>(it - entries.begin())] += b.amount;
  }
  // Conservation law: per source, idle + lent-out == cumulative harvested.
  for (size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    const Resources& lent = lent_[i];
    LIBRA_AUDIT_CHECK(
        near(e.idle.cpu + lent.cpu, e.harvested.cpu) &&
            near(e.idle.mem + lent.mem, e.harvested.mem),
        origin << ": conservation violated for source " << e.source
               << ": idle (cpu " << e.idle.cpu << ", mem " << e.idle.mem
               << ") + lent (cpu " << lent.cpu << ", mem " << lent.mem
               << ") != harvested (cpu " << e.harvested.cpu << ", mem "
               << e.harvested.mem << ")");
  }
}

void InvariantAuditor::on_pool_event(const core::PoolEvent& ev) {
  ++stats_.pool_events;
  if (ev.node == sim::kNoNode)
    all_pools_pending_ = true;
  else
    pending_nodes_.mark(ev.node);
  if (!ev.pool) return;
  ev.pool->debug_state(snap_);
  check_conservation("pool-event");
}

bool InvariantAuditor::sample_due(long id) {
  if (id != last_event_id_ + 1) {
    // A gap in the ids (a hook that forwards only some events, or a test
    // that numbers its own): restart the countdown from this id.
    const long rem = id % cfg_.every_n;
    sample_countdown_ = rem == 0 ? 0 : cfg_.every_n - rem;
  }
  last_event_id_ = id;
  if (sample_countdown_ > 0) {
    --sample_countdown_;
    return false;
  }
  sample_countdown_ = cfg_.every_n - 1;
  return true;
}

void InvariantAuditor::on_engine_event(sim::EngineApi& api,
                                       const sim::EngineEvent& ev) {
  ++stats_.engine_events;
  const bool sampled = sample_due(ev.id);
  switch (ev.kind) {
    case sim::EngineEventKind::kRunEnd:
      sweep(api, sim::engine_event_name(ev.kind));
      return;
    case sim::EngineEventKind::kRecycle:
      check_recycle(api, ev.inv, sampled);
      break;
    default:
      break;
  }
  if (stats_.engine_events % kFullSweepPeriod == 0) {
    sweep(api, sim::engine_event_name(ev.kind));
    return;
  }
  collect(api);
  if (sampled) check_marked(api, sim::engine_event_name(ev.kind));
}

void InvariantAuditor::collect(sim::EngineApi& api) {
  for (const NodeId n : api.touched_nodes()) pending_nodes_.mark(n);
  if (policy_ == nullptr) return;  // no stash to check finalized ids against
  for (const InvocationId id : api.finalized_ids())
    pending_finalized_.push_back(id);
}

bool InvariantAuditor::quarantine_moved() {
  const core::TrustManager* trust =
      policy_ != nullptr ? policy_->trust_manager() : nullptr;
  if (trust == nullptr) return false;
  const long seen = trust->quarantine_transitions();
  if (seen == quarantines_seen_) return false;
  quarantines_seen_ = seen;
  return true;
}

void InvariantAuditor::clear_pending() {
  pending_nodes_.clear();
  pending_finalized_.clear();
  all_pools_pending_ = false;
}

void InvariantAuditor::check_marked(sim::EngineApi& api, const char* what) {
  ++stats_.checks;
  // A quarantine makes entries that no mutation touched illegal, so it
  // re-checks every pool; leaving quarantine only relaxes the invariant.
  const bool all_pools = quarantine_moved() || all_pools_pending_;
  // The common case (a park): nothing changed, nothing to check.
  if (pending_nodes_.ids().empty() && pending_finalized_.empty() &&
      !all_pools)
    return;
  // Ascending node order, as the full sweep reports.
  order_.assign(pending_nodes_.ids().begin(), pending_nodes_.ids().end());
  std::sort(order_.begin(), order_.end());
  const auto& nodes = api.nodes();
  load_roots(api);
  for (const NodeId n : order_)
    if (static_cast<size_t>(n) < nodes.size())
      check_node(api, nodes[static_cast<size_t>(n)], what);
  if (policy_ != nullptr) {
    check_finalized(what);
    if (all_pools) {
      for (size_t n = 0; n < policy_->pools_for_audit().size(); ++n)
        check_pool(api, n, what);
    } else {
      for (const NodeId n : order_)
        check_pool(api, static_cast<size_t>(n), what);
    }
  }
  clear_pending();
}

void InvariantAuditor::check_recycle(sim::EngineApi& api, InvocationId id,
                                     bool sampled) {
  ++stats_.recycle_checks;
  // The engine notifies while the record is still in the map, after it
  // disarmed the tracked events; epoch-guarded continuations that still hold
  // the id resolve through the guarded lookup once it is extracted. A
  // terminal record is present but no longer "alive" (alive = !done).
  LIBRA_AUDIT_CHECK(!api.invocation_alive(id) && api.invocation(id).done,
                    "recycle: invocation "
                        << id << " is not a terminal record (still alive)");
  if (!sampled) return;
  for (const auto& node : api.nodes()) {
    const auto& placed = api.placed_on(node.id());
    LIBRA_AUDIT_CHECK(!std::binary_search(placed.begin(), placed.end(), id),
                      "recycle: invocation "
                          << id << " still holds a node reservation on node "
                          << node.id());
  }
  // A recycled record must not leave a ghost contribution in the cluster's
  // live-usage sums: every terminal path refreshes usage with stopping=true
  // before the record is finalized.
  LIBRA_AUDIT_CHECK(!api.invocation(id).usage_contrib_present,
                    "recycle: invocation "
                        << id
                        << " still contributes to the cluster usage sums");
  if (!policy_) return;
  // Ascending node order by construction (node-indexed pool table).
  const auto& pools = policy_->pools_for_audit();
  for (size_t n = 0; n < pools.size(); ++n) {
    if (!pools[n]) continue;
    pools[n]->debug_state(snap_);
    for (const auto& b : snap_.borrows) {
      LIBRA_AUDIT_CHECK(b.source != id && b.borrower != id,
                        "recycle: invocation "
                            << id << " still referenced by a grant in pool of "
                            << "node " << n << " (source " << b.source
                            << ", borrower " << b.borrower << ")");
    }
    for (const auto& e : snap_.entries) {
      LIBRA_AUDIT_CHECK(e.source != id,
                        "recycle: invocation "
                            << id << " still owns a pool entry on node " << n);
    }
  }
  // Bookkeeping boundedness: the policy's per-invocation stash must have
  // dropped this id on finalize (the pre-§5l leak kept raw predictions of
  // lost invocations forever).
  LIBRA_AUDIT_CHECK(!policy_->raw_pred_stashed(id),
                    "recycle: invocation "
                        << id
                        << " still stashed in the policy's raw-prediction "
                           "bookkeeping");
}

void InvariantAuditor::check_node(sim::EngineApi& api, const sim::Node& node,
                                  const char* what) {
  ++stats_.nodes_checked;
  // Allocated totals == sum of placed reservations, summed over the node's
  // placed list in ascending id order.
  const NodeId nid = node.id();
  const auto& placed = api.placed_on(nid);
  Resources want;
  for (const InvocationId id : placed) {
    const sim::Invocation* inv =
        api.invocation_alive(id) ? &api.invocation(id) : nullptr;
    LIBRA_AUDIT_CHECK(inv != nullptr && !inv->done,
                      "after " << what << ": placed invocation " << id
                               << " is completed or gone");
    if (inv == nullptr) continue;
    LIBRA_AUDIT_CHECK(inv->node == nid,
                      "after " << what << ": placed invocation " << id
                               << " is listed on node " << nid
                               << " but references node " << inv->node);
    want += inv->user_alloc + inv->probe_extra;
  }
  // The capacity index bounds every node's free slice from above: the
  // direction a scheduler's O(1) "no node fits" proof relies on.
  for (size_t s = 0; s < roots_.size(); ++s) {
    const Resources free = node.shard_free(static_cast<sim::ShardId>(s));
    const Resources& root = roots_[s];
    LIBRA_AUDIT_CHECK(free.cpu <= root.cpu && free.mem <= root.mem,
                      "after " << what << ": node " << nid << " shard " << s
                               << " has more free (cpu " << free.cpu
                               << ", mem " << free.mem
                               << ") than the capacity index's root (cpu "
                               << root.cpu << ", mem " << root.mem << ")");
    slice_max_[s] = Resources::max(slice_max_[s], free);
  }
  LIBRA_AUDIT_CHECK(
      near(node.allocated().cpu, want.cpu) &&
          near(node.allocated().mem, want.mem),
      "after " << what << ": node " << nid << " allocated totals (cpu "
               << node.allocated().cpu << ", mem " << node.allocated().mem
               << ") != sum of placed reservations (cpu " << want.cpu
               << ", mem " << want.mem << ") over " << placed.size()
               << " invocations");
  if (!node.up()) {
    LIBRA_AUDIT_CHECK(want.is_zero() && node.running_invocations() == 0,
                      "after " << what << ": down node " << nid
                               << " still holds reservations (cpu "
                               << want.cpu << ", mem " << want.mem << ", "
                               << node.running_invocations() << " running)");
  }
}

void InvariantAuditor::load_roots(sim::EngineApi& api) {
  const auto& nodes = api.nodes();
  const int shards = nodes.empty() ? 0 : nodes.front().num_shards();
  roots_.resize(static_cast<size_t>(shards));
  for (sim::ShardId s = 0; s < shards; ++s)
    roots_[static_cast<size_t>(s)] = api.max_shard_free(s);
  const double none = -std::numeric_limits<double>::infinity();
  slice_max_.assign(roots_.size(), Resources{none, none});
}

void InvariantAuditor::check_capacity_index(const char* what) {
  for (size_t s = 0; s < roots_.size(); ++s) {
    const Resources& root = roots_[s];
    // EngineApi's default, +inf on both axes, means the api keeps no index;
    // an engine's root is finite (node capacities are validated finite).
    if (std::isinf(root.cpu) && std::isinf(root.mem) && root.cpu > 0.0 &&
        root.mem > 0.0)
      continue;
    const Resources& want = slice_max_[s];
    LIBRA_AUDIT_CHECK(same_bits(root, want),
                      "after " << what << ": capacity index root of shard "
                               << s << " (cpu " << std::setprecision(17)
                               << root.cpu << ", mem " << root.mem
                               << ") != the nodes' largest free slice (cpu "
                               << want.cpu << ", mem " << want.mem << ")");
  }
}

void InvariantAuditor::check_occupancy(sim::EngineApi& api,
                                       const char* what) {
  const size_t nodes = api.nodes().size();
  if (policy_ != nullptr)
    check_view_bits(
        nodes, *policy_->occupied_views(),
        [this](NodeId n) -> const core::PoolStatus& {
          return policy_->pool_status(n);
        },
        ViewOwner{-1}, what);
  for (int c = 0;; ++c) {
    const util::IdBitset* bits = api.controller_occupied_views(c);
    if (bits == nullptr) break;
    check_view_bits(
        nodes, *bits,
        [&api, c](NodeId n) -> const core::PoolStatus& {
          return *api.controller_pool_view(n, c);
        },
        ViewOwner{c}, what);
  }
}

void InvariantAuditor::check_finalized(const char* what) {
  // Every terminal path funnels through finalize_record, which must drop the
  // id from the stash (on_finalized): this is where the stash would start to
  // outgrow the live set. Same diagnostic as the sweep's stash walk.
  for (const InvocationId id : pending_finalized_) {
    LIBRA_AUDIT_CHECK(!policy_->raw_pred_stashed(id),
                      "after " << what << ": policy raw-prediction stash holds "
                               << "invocation " << id
                               << " which is completed or gone — bookkeeping "
                                  "must stay bounded by the live set");
  }
}

void InvariantAuditor::check_pool(sim::EngineApi& api, size_t n,
                                  const char* what) {
  const auto& pools = policy_->pools_for_audit();
  if (n >= pools.size() || !pools[n]) return;
  const auto* trust = policy_->trust_manager();
  const auto node_id = static_cast<NodeId>(n);
  pools[n]->debug_state(snap_);
  check_conservation(what);
  for (const auto& b : snap_.borrows) {
    LIBRA_AUDIT_CHECK(
        in_flight(api, b.source),
        "after " << what << ": pool of node " << node_id
                 << " holds a grant sourced from invocation " << b.source
                 << " which is completed or gone (borrower " << b.borrower
                 << ")");
    LIBRA_AUDIT_CHECK(
        in_flight(api, b.borrower),
        "after " << what << ": pool of node " << node_id
                 << " holds a grant lent to invocation " << b.borrower
                 << " which is completed or gone (source " << b.source
                 << ")");
  }
  for (const auto& e : snap_.entries) {
    // Idle inventory dies with its source (§5.1 preemptive release).
    const bool live = in_flight(api, e.source);
    LIBRA_AUDIT_CHECK(live, "after " << what << ": pool of node " << node_id
                                     << " holds an entry sourced from "
                                     << "invocation " << e.source
                                     << " which is completed or gone (idle "
                                     << "cpu " << e.idle.cpu << ", mem "
                                     << e.idle.mem << ")");
    // Quarantine invariant (trust circuit breaker): a function demoted to
    // the OPEN tier must have had every harvest sourced from its running
    // invocations pulled back — the pool holds nothing it contributed.
    if (!live || trust == nullptr) continue;
    const auto func = api.invocation(e.source).func;
    LIBRA_AUDIT_CHECK(
        !trust->quarantined(func, api.now()),
        "after " << what << ": pool of node " << node_id
                 << " holds an entry sourced from invocation " << e.source
                 << " of QUARANTINED function " << func << " (idle cpu "
                 << e.idle.cpu << ", mem " << e.idle.mem
                 << ") — quarantined functions must never be harvest "
                    "sources");
  }
  if (n < api.nodes().size() && !api.nodes()[n].up()) {
    LIBRA_AUDIT_CHECK(snap_.entries.empty() && snap_.borrows.empty(),
                      "after " << what << ": pool of DOWN node " << node_id
                               << " is not empty (" << snap_.entries.size()
                               << " entries, " << snap_.borrows.size()
                               << " grants) — harvested inventory must die "
                                  "with its node");
  }
}

void InvariantAuditor::sweep(sim::EngineApi& api, const char* what) {
  collect(api);
  ++stats_.checks;
  ++stats_.sweeps;
  load_roots(api);
  for (const auto& node : api.nodes()) check_node(api, node, what);
  check_capacity_index(what);
  check_occupancy(api, what);
  if (policy_ != nullptr) {
    check_finalized(what);
    // Bookkeeping boundedness: every stashed raw prediction must belong to
    // a live invocation (terminal records drop theirs via on_finalized), so
    // the stash can never outgrow the live set.
    policy_->for_each_raw_pred_id([&api, what](InvocationId stashed) {
      LIBRA_AUDIT_CHECK(api.invocation_alive(stashed),
                        "after " << what
                                 << ": policy raw-prediction stash holds "
                                 << "invocation " << stashed
                                 << " which is completed or gone — "
                                    "bookkeeping must stay bounded by the "
                                    "live set");
    });
    // Ascending node order by construction (node-indexed pool table).
    quarantine_moved();
    for (size_t n = 0; n < policy_->pools_for_audit().size(); ++n)
      check_pool(api, n, what);
  }
  clear_pending();
}

}  // namespace libra::analysis
