#include "sim/sharded_controller.h"

#include <algorithm>
#include <chrono>

#include "sim/engine.h"
#include "util/audit.h"
#include "util/log.h"

namespace libra::sim {

namespace {

// Real wall-clock timing of the decision path, opt-in via
// measure_real_sched_overhead (Fig. 12c): the overhead claims are about the
// actual C++ scheduling code, so this is the one sanctioned wall-clock use
// in the sim core. It feeds the sched_overhead metrics only — never sim
// state, digests, or event ordering.
// LIBRA_LINT_ALLOW(nondeterminism-source): opt-in fig12(c) real-overhead measurement; feeds sched_overhead metrics only
using WallClock = std::chrono::steady_clock;

double wall_seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

}  // namespace

ShardedController::ShardedController(Engine& host) : host_(host) {
  const auto shards = static_cast<size_t>(host_.config().num_shards);
  shard_queues_.resize(shards);
  shard_busy_until_.assign(shards, 0.0);
  shard_registered_.assign(shards, 0);
  registrations_.reserve(shards);
  // Node capacities are fixed for the whole run, so the feasibility check in
  // admit() only needs the distinct shard slices.
  for (const auto& cap : host_.config().node_capacities) {
    const Resources slice = cap / static_cast<double>(host_.config().num_shards);
    bool seen = false;
    for (const auto& c : distinct_shard_caps_)
      if (c.cpu == slice.cpu && c.mem == slice.mem) {
        seen = true;
        break;
      }
    if (!seen) distinct_shard_caps_.push_back(slice);
  }
}

void ShardedController::admit(InvocationId id) {
  Invocation& v = host_.invocation(id);
  // Front ends spray invocations across shards; id-based assignment models
  // the decentralized, stateless dispatch of §6.4.
  v.shard = static_cast<ShardId>(v.id % host_.config().num_shards);
  // Front-end ownership (src/sim/ctrl): stamps v.controller = func % N.
  host_.control().on_admit(v);
  v.t_sched_enqueue = host_.queue().now();
  // Reject invocations that can never fit a shard slice anywhere.
  bool can_fit = false;
  for (const auto& cap : distinct_shard_caps_)
    if (v.user_alloc.fits_in(cap)) can_fit = true;
  if (!can_fit) {
    LIBRA_ERROR() << "invocation " << v.id
                  << " can never fit any shard slice; dropping";
    v.done = true;
    host_.mark_terminal();  // keeps health pings from looping forever
    host_.lifecycle().finalize_record(v);
    return;
  }
  shard_queues_[static_cast<size_t>(v.shard)].push_back(id);
  host_.control().on_enqueued(v);
  pump(v.shard);
}

void ShardedController::requeue_after_fault(InvocationId id) {
  Invocation& inv = host_.invocation(id);
  if (inv.done) return;
  inv.t_sched_enqueue = host_.queue().now();  // timeout restarts per attempt
  shard_queues_[static_cast<size_t>(inv.shard)].push_back(id);
  host_.control().on_enqueued(inv);
  pump(inv.shard);
  host_.notify_audit(EngineEventKind::kRequeue, id);
}

void ShardedController::retry_waiting() {
  if (waiting_.empty()) return;
  std::vector<InvocationId>& parked = waiting_scratch_;
  parked.swap(waiting_);
  for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
    const Invocation& inv = host_.invocation(*it);
    shard_queues_[static_cast<size_t>(inv.shard)].push_front(*it);
    host_.control().on_enqueued(inv);
  }
  parked.clear();
  for (ShardId s = 0; s < host_.config().num_shards; ++s) pump(s);
}

void ShardedController::expire_overdue_waiting() {
  if (waiting_.empty()) return;
  std::vector<InvocationId>& keep = waiting_scratch_;
  for (InvocationId id : waiting_) {
    Invocation& inv = host_.invocation(id);
    if (inv.done) continue;
    if (host_.queue().now() - inv.t_sched_enqueue >
        host_.config().placement_timeout)
      host_.lifecycle().lose_invocation(inv);
    else
      keep.push_back(id);
  }
  waiting_.swap(keep);
  keep.clear();
}

void ShardedController::pump(ShardId shard) {
  const auto s = static_cast<size_t>(shard);
  if (shard_registered_[s] || shard_queues_[s].empty()) return;
  shard_registered_[s] = 1;
  const SimTime at = std::max(host_.queue().now(), shard_busy_until_[s]);
  bool pending = false;  // a barrier event at `at` is already scheduled
  for (const Registration& r : registrations_)
    if (r.at == at) {
      pending = true;
      break;
    }
  registrations_.push_back({at, shard});
  if (!pending) host_.queue().schedule(at, [this, at] { run_barrier(at); });
}

void ShardedController::run_barrier(SimTime at) {
  LIBRA_AUDIT_CHECK(items_.empty(),
                    "decision barrier at t=" << at << " started while "
                                             << items_.size()
                                             << " items of another are live");
  // Take this barrier's registrations out of the list before processing
  // them (registrations made at this same timestamp by later handlers must
  // open a fresh batch with a fresh, later event), keeping the rest in
  // order. Pop one invocation per member shard NOW, not at registration
  // time: same-time retries may have pushed a different invocation to the
  // front, exactly as the serial per-shard decision events observed it.
  size_t kept = 0;
  for (const Registration& r : registrations_) {
    if (r.at != at) {
      registrations_[kept++] = r;
      continue;
    }
    const auto s = static_cast<size_t>(r.shard);
    shard_registered_[s] = 0;
    std::deque<InvocationId>& pending = shard_queues_[s];
    if (pending.empty()) continue;  // pump registers only non-empty shards
    Invocation& inv = host_.invocation(pending.front());
    pending.pop_front();
    host_.control().on_dequeued(inv);
    shard_busy_until_[s] = at + host_.config().sched_decision_delay;
    items_.push_back(&inv);
  }
  registrations_.resize(kept);
  if (items_.empty()) return;

  // Decide in registration order, then re-pump the member shards in the
  // same order the serial engine's per-shard events would have re-armed
  // themselves. Each item came off its own shard's queue, so its shard is
  // the member's.
  for (Invocation* inv : items_) commit_one(*inv);
  for (const Invocation* inv : items_) pump(inv->shard);
  items_.clear();

  // Cross-controller work stealing (src/sim/ctrl): after the batch settles,
  // idle front ends pull queued work from overloaded peers in fixed
  // controller-id order. Pure re-stamping of Invocation::controller — it
  // never reorders shard queues or event timing.
  host_.control().maybe_steal();
}

void ShardedController::commit_one(Invocation& inv) {
  if (inv.done) return;
  const InvocationId id = inv.id;
  EngineApi& api = host_.api();
  RunMetrics& metrics = host_.metrics();
  const SimTime now = host_.queue().now();
  ++metrics.sched_decisions;
  NodeId chosen = kNoNode;
  if (host_.config().measure_real_sched_overhead) {
    const auto t0 = WallClock::now();
    chosen = host_.policy().select_node(inv, api);
    const double secs = wall_seconds_since(t0);
    metrics.sched_overhead_sum += secs;
    if (host_.config().retain_records)
      metrics.sched_overhead_seconds.push_back(secs);
  } else {
    chosen = host_.policy().select_node(inv, api);
  }
  // The scheduler's pick before commit-time validation against ground truth;
  // a first choice that fails validation below is a stale-view conflict.
  const NodeId first_choice = chosen;
  if (chosen != kNoNode && !host_.cluster().node(chosen).up()) {
    // The scheduler worked from a stale health view / pool snapshot and
    // picked a dead node; the dispatch times out controller-side.
    ++metrics.stale_snapshot_decisions;
    chosen = kNoNode;
  }
  if (chosen != kNoNode && host_.cluster().node_draining(chosen)) {
    // Spot drain in progress: the node announced its departure, so the
    // controller refuses new placements on it and parks the invocation
    // instead. Deliberately not counted as a stale-snapshot decision — that
    // counter is part of the replay digest and drains must not perturb it.
    chosen = kNoNode;
  }
  if (chosen == kNoNode ||
      !host_.cluster().node(chosen).try_reserve(inv.shard, inv.user_alloc)) {
    // Reject-and-requeue: stale-view conflicts park the invocation (counted
    // per owning controller), never silently over-commit ground truth.
    host_.control().on_decision(inv, first_choice, /*placed=*/false);
    waiting_.push_back(id);
    host_.notify_audit(EngineEventKind::kPark, id);
    return;
  }
  host_.control().on_decision(inv, first_choice, /*placed=*/true);
  inv.node = chosen;
  host_.cluster().insert_placed(id, chosen);
  inv.t_sched_done = now;
  host_.cluster().record_series();

  // Container acquisition happens before the pool transaction so a failed
  // cold start can unwind without having touched the harvest pools.
  const auto acq =
      host_.cluster().node(chosen).containers().acquire(inv.func, now);
  inv.cold_start = acq.cold;
  if (acq.cold && host_.fault_active() &&
      host_.fault()->fail_cold_start(chosen, now)) {
    ++metrics.cold_start_failures;
    host_.cluster().node(chosen).release(inv.shard, inv.user_alloc);
    inv.node = kNoNode;
    host_.cluster().erase_placed(id, chosen);
    host_.cluster().record_series();
    // The failure only surfaces after the attempted creation time.
    host_.lifecycle().retry_or_lose(inv, acq.delay);
    host_.notify_audit(EngineEventKind::kColdStartFailure, id, chosen);
    return;
  }

  const AllocationPlan plan = host_.policy().plan_allocation(inv, api);
  inv.effective = plan.effective;
  inv.t_pool_done = now + host_.config().pool_op_delay;

  const uint64_t epoch = ++inv.placement_epoch;
  host_.queue().schedule(inv.t_pool_done + acq.delay, [this, id, epoch] {
    host_.lifecycle().begin_execution(id, epoch);
  });
  host_.notify_audit(EngineEventKind::kPlacement, id, chosen);
}

}  // namespace libra::sim
