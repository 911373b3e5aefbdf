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
  shard_registered_.assign(shards, false);
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

ShardedController::~ShardedController() = default;

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
  host_.control().on_enqueued(id);
  pump(v.shard);
}

void ShardedController::requeue_after_fault(InvocationId id) {
  Invocation& inv = host_.invocation(id);
  if (inv.done) return;
  inv.t_sched_enqueue = host_.queue().now();  // timeout restarts per attempt
  shard_queues_[static_cast<size_t>(inv.shard)].push_back(id);
  host_.control().on_enqueued(id);
  pump(inv.shard);
  host_.notify_audit("requeue", id);
}

void ShardedController::retry_waiting() {
  if (waiting_.empty()) return;
  std::vector<InvocationId>& parked = waiting_scratch_;
  parked.swap(waiting_);
  for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
    const Invocation& inv = host_.invocation(*it);
    shard_queues_[static_cast<size_t>(inv.shard)].push_front(*it);
    host_.control().on_enqueued(*it);
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
  shard_registered_[s] = true;
  const SimTime at = std::max(host_.queue().now(), shard_busy_until_[s]);
  // Flat linear scan (§5l): only a handful of barriers are ever pending, so
  // this beats the old std::map's tree walk and allocations on the hot path.
  for (auto& batch : batches_) {
    if (batch.first == at) {
      batch.second.push_back(shard);
      return;  // joins the batch; its barrier event is already scheduled
    }
  }
  std::vector<ShardId> members;
  if (!batch_spare_.empty()) {
    members = std::move(batch_spare_.back());
    batch_spare_.pop_back();
    members.clear();
  }
  members.push_back(shard);
  batches_.emplace_back(at, std::move(members));
  host_.queue().schedule(at, [this, at] { run_barrier(at); });
}

void ShardedController::run_barrier(SimTime at) {
  size_t slot = batches_.size();
  for (size_t i = 0; i < batches_.size(); ++i)
    if (batches_[i].first == at) {
      slot = i;
      break;
    }
  if (slot == batches_.size()) return;
  std::vector<ShardId> members = std::move(batches_[slot].second);
  // Erase before processing: registrations made at this same timestamp by
  // later handlers must open a fresh batch with a fresh, later event.
  // Swap-erase is fine — pump() scans linearly, order within batches_ is
  // irrelevant (each pending timestamp appears exactly once).
  batches_[slot] = std::move(batches_.back());
  batches_.pop_back();

  // Pop up to sched_batch_depth invocations per member shard NOW (not at
  // registration time): same-time retries may have pushed a different
  // invocation to the front, exactly as the serial per-shard decision events
  // observed it. At depth 1 (default) this is bit-for-bit the legacy
  // one-per-shard barrier. At depth k the shard amortizes one barrier over up
  // to k decisions: same-shard items may speculate against capacity an
  // earlier sibling commits away, but commit-time try_reserve validation
  // catches the conflict and parks the loser — the documented stale-view
  // path, never an over-commit.
  LIBRA_AUDIT_CHECK(items_.empty(),
                    "decision barrier at t=" << at << " started while "
                                             << items_.size()
                                             << " items of another are live");
  std::vector<BarrierItem>& items = items_;
  const int depth = std::max(1, host_.config().sched_batch_depth);
  for (ShardId shard : members) {
    const auto s = static_cast<size_t>(shard);
    shard_registered_[s] = false;
    int popped = 0;
    while (popped < depth && !shard_queues_[s].empty()) {
      items.push_back({shard_queues_[s].front(), std::nullopt, 0.0});
      shard_queues_[s].pop_front();
      host_.control().on_dequeued(items.back().inv);
      ++popped;
    }
    if (popped > 0)
      shard_busy_until_[s] =
          at + host_.config().sched_decision_delay * popped;
  }

  // Phase 1 — speculate: read-only decisions from the frozen pre-batch view,
  // fanned out across the worker pool. Decisions of distinct shards are
  // independent by construction (disjoint shard slices, ping-time
  // snapshots); order-dependent policies decline and stay serial.
  const bool measure = host_.config().measure_real_sched_overhead;
  auto speculate_one = [&](size_t i) {
    const Invocation& inv = host_.invocation(items[i].inv);
    if (inv.done) return;  // commit will skip it, as the serial engine did
    if (measure) {
      const auto t0 = WallClock::now();
      items[i].speculated = host_.policy().speculate_select(inv, host_.api());
      items[i].decision_seconds = wall_seconds_since(t0);
    } else {
      items[i].speculated = host_.policy().speculate_select(inv, host_.api());
    }
  };
  const int workers = host_.config().sched_workers;
  if (workers > 1 && items.size() > 1) {
    if (!pool_) pool_ = std::make_unique<SchedWorkerPool>(workers);
    pool_->run(items.size(), speculate_one);
  } else {
    for (size_t i = 0; i < items.size(); ++i) speculate_one(i);
  }

  // Phase 2 — commit serially in registration order.
  for (const BarrierItem& item : items)
    commit_one(item.inv, item.speculated, item.decision_seconds);
  items.clear();

  // Phase 3 — re-pump the member shards, in the same order the serial
  // engine's per-shard events would have re-armed themselves.
  for (ShardId shard : members) pump(shard);
  batch_spare_.push_back(std::move(members));

  // Cross-controller work stealing (src/sim/ctrl): after the batch settles,
  // idle front ends pull queued work from overloaded peers in fixed
  // controller-id order. Pure re-stamping of Invocation::controller — it
  // never reorders shard queues or event timing.
  host_.control().maybe_steal();
}

void ShardedController::enqueue_prediction(InvocationId id) {
  const SimTime at = host_.queue().now();
  for (auto& batch : pred_batches_) {
    if (batch.first == at) {
      batch.second.push_back(id);
      return;  // joins the barrier; its event is already scheduled
    }
  }
  std::vector<InvocationId> ids;
  if (!pred_spare_.empty()) {
    ids = std::move(pred_spare_.back());
    pred_spare_.pop_back();
    ids.clear();
  }
  ids.push_back(id);
  pred_batches_.emplace_back(at, std::move(ids));
  host_.queue().schedule(at, [this, at] { run_pred_barrier(at); });
}

void ShardedController::run_pred_barrier(SimTime at) {
  size_t slot = pred_batches_.size();
  for (size_t i = 0; i < pred_batches_.size(); ++i)
    if (pred_batches_[i].first == at) {
      slot = i;
      break;
    }
  if (slot == pred_batches_.size()) return;
  std::vector<InvocationId> ids = std::move(pred_batches_[slot].second);
  // Same erase-before-process discipline as the decision barrier: profiler
  // completions landing at this instant from later handlers open a fresh
  // barrier with a fresh, later event.
  pred_batches_[slot] = std::move(pred_batches_.back());
  pred_batches_.pop_back();

  // Phase 1 — speculate: pure prediction memos computed from the frozen
  // pre-barrier model state, fanned out across the worker pool. Predictions
  // of trained functions are pure by contract (Policy::speculate_predict);
  // anything order-dependent (first-seen training, suppression bookkeeping)
  // declines and stays serial.
  std::vector<std::optional<PredictionMemo>> memos(ids.size());
  auto speculate_one = [&](size_t i) {
    const Invocation& inv = host_.invocation(ids[i]);
    if (inv.done) return;
    memos[i] = host_.policy().speculate_predict(inv);
  };
  const int workers = host_.config().sched_workers;
  if (workers > 1 && ids.size() > 1) {
    if (!pool_) pool_ = std::make_unique<SchedWorkerPool>(workers);
    pool_->run(ids.size(), speculate_one);
  } else {
    for (size_t i = 0; i < ids.size(); ++i) speculate_one(i);
  }

  // Phase 2 — commit serially in registration order: write (or compute) the
  // prediction and schedule admission after profiler_delay, replicating the
  // serial path's per-event predict/schedule sequence — same relative order,
  // same timestamps.
  for (size_t i = 0; i < ids.size(); ++i) {
    const InvocationId id = ids[i];
    Invocation& inv = host_.invocation(id);
    if (inv.done) continue;
    if (memos[i].has_value())
      host_.policy().commit_predict(inv, *memos[i]);
    else
      host_.policy().predict(inv);
    inv.t_profiler_done = at + host_.config().profiler_delay;
    host_.queue().schedule(inv.t_profiler_done, [this, id] { admit(id); });
  }
  pred_spare_.push_back(std::move(ids));
}

void ShardedController::commit_one(InvocationId id,
                                   const std::optional<NodeId>& speculated,
                                   double decision_seconds) {
  Invocation& inv = host_.invocation(id);
  if (inv.done) return;
  EngineApi& api = host_.api();
  RunMetrics& metrics = host_.metrics();
  const SimTime now = host_.queue().now();
  ++metrics.sched_decisions;
  NodeId chosen = kNoNode;
  if (speculated.has_value()) {
    host_.policy().commit_select(inv, api);
    chosen = *speculated;
    if (host_.config().measure_real_sched_overhead) {
      metrics.sched_overhead_sum += decision_seconds;
      if (host_.config().retain_records)
        metrics.sched_overhead_seconds.push_back(decision_seconds);
    }
  } else if (host_.config().measure_real_sched_overhead) {
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
    ++inv.park_count;
    waiting_.push_back(id);
    host_.notify_audit("park", id);
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
    host_.notify_audit("cold_start_failure", id, chosen);
    return;
  }

  const AllocationPlan plan = host_.policy().plan_allocation(inv, api);
  inv.effective = plan.effective;
  inv.t_pool_done = now + host_.config().pool_op_delay;

  const uint64_t epoch = ++inv.placement_epoch;
  host_.queue().schedule(inv.t_pool_done + acq.delay, [this, id, epoch] {
    host_.lifecycle().begin_execution(id, epoch);
  });
  host_.notify_audit("placement", id, chosen);
}

}  // namespace libra::sim
