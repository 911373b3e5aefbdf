#include "core/libra_policy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/predictor_fault.h"
#include "util/log.h"

namespace libra::core {

using sim::AllocationPlan;
using sim::EngineApi;
using sim::Invocation;
using sim::NodeId;
using sim::Resources;

LibraPolicy::LibraPolicy(LibraPolicyConfig cfg, PredictorPtr predictor,
                         SchedulerPtr scheduler)
    : cfg_(cfg),
      predictor_(std::move(predictor)),
      scheduler_(std::move(scheduler)) {
  if (!predictor_) throw std::invalid_argument("LibraPolicy: null predictor");
  if (!scheduler_) throw std::invalid_argument("LibraPolicy: null scheduler");
  profiler_hook_ = dynamic_cast<Profiler*>(predictor_.get());
  if (profiler_hook_ == nullptr) {
    // Look through a fault-injection wrapper: the wrapper corrupts what the
    // prediction service SERVES, but the per-function mitigation hooks
    // (mem-strike blocks, histogram fallback) still talk to the real model.
    if (auto* faulty = dynamic_cast<FaultyPredictor*>(predictor_.get()))
      profiler_hook_ = dynamic_cast<Profiler*>(&faulty->inner());
  }
  if (cfg_.trust_enabled) trust_ = std::make_unique<TrustManager>();
}

std::shared_ptr<LibraPolicy> LibraPolicy::with_coverage_scheduler(
    LibraPolicyConfig cfg, PredictorPtr predictor) {
  // The scheduler reads the policy's snapshots, so it binds the policy as
  // its status provider once the policy exists.
  auto scheduler =
      std::make_shared<CoverageScheduler>(nullptr, cfg.coverage_alpha);
  auto policy = std::make_shared<LibraPolicy>(cfg, std::move(predictor),
                                              scheduler);
  scheduler->bind(policy.get());
  return policy;
}

HarvestResourcePool& LibraPolicy::pool_for(NodeId node) {
  const auto idx = static_cast<size_t>(node);
  if (idx >= pools_.size()) pools_.resize(idx + 1);
  auto& slot = pools_[idx];
  if (!slot) {
    slot = std::make_unique<HarvestResourcePool>();
    slot->set_node_hint(node);
    if (pool_listener_ != nullptr) slot->set_event_listener(pool_listener_);
    for (const auto& [tenant, cap] : cfg_.tenant_quotas)
      slot->set_tenant_quota(tenant, cap);
  }
  return *slot;
}

void LibraPolicy::set_tenant_quota(int tenant, const sim::Resources& cap) {
  cfg_.tenant_quotas[tenant] = cap;
  for (auto& pool : pools_)
    if (pool) pool->set_tenant_quota(tenant, cap);
}

void LibraPolicy::set_pool_listener(PoolEventListener* listener) {
  pool_listener_ = listener;
  for (auto& pool : pools_)
    if (pool) pool->set_event_listener(listener);
}

void LibraPolicy::add_backfill_candidate(sim::NodeId node,
                                         sim::InvocationId id) {
  const auto idx = static_cast<size_t>(node);
  if (idx >= backfill_candidates_.size())
    backfill_candidates_.resize(idx + 1);
  auto& list = backfill_candidates_[idx];
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it == list.end() || *it != id) list.insert(it, id);
}

void LibraPolicy::drop_backfill_candidate(sim::NodeId node,
                                          sim::InvocationId id) {
  if (node < 0 || static_cast<size_t>(node) >= backfill_candidates_.size())
    return;
  auto& list = backfill_candidates_[static_cast<size_t>(node)];
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it != list.end() && *it == id) list.erase(it);
}

void LibraPolicy::emit_policy_event(PolicyEventKind kind,
                                    const sim::Invocation& inv,
                                    sim::SimTime now) {
  if (policy_listener_ == nullptr) return;
  policy_listener_->on_policy_event(
      PolicyEvent{kind, inv.func, inv.id, inv.node, now});
}

size_t LibraPolicy::function_index(sim::FunctionId func) {
  if (func < 0)
    throw std::out_of_range("LibraPolicy: negative function id " +
                            std::to_string(func));
  return static_cast<size_t>(func);
}

void LibraPolicy::add_mem_strike(sim::FunctionId func) {
  const size_t f = function_index(func);
  if (f >= mem_strikes_.size()) mem_strikes_.resize(f + 1, 0);
  ++mem_strikes_[f];
}

std::string LibraPolicy::name() const {
  return "libra(" + predictor_->name() + "," + scheduler_->name() + ")";
}

void LibraPolicy::predict(Invocation& inv) {
  predictor_->predict(inv);
  if (!cfg_.preemptive_release_on_safeguard) {
    // Freyr-style correction: after a safeguard strike, only the NEXT
    // invocation of the function reverts to the user-defined allocation.
    const size_t f = function_index(inv.func);
    if (f < suppress_next_.size() && suppress_next_[f]) {
      inv.pred_demand = inv.user_alloc;
      suppress_next_[f] = 0;
    }
  }
  if (!trust_) return;
  // The model keeps being scored even while it is not trusted to SERVE:
  // stash its raw output so on_complete can measure it against the observed
  // peak, enabling re-promotion while the invocation runs safely padded.
  // predict() has no clock, so trust state is evaluated at arrival time.
  raw_pred_[inv.id] = inv.pred_demand;
  switch (trust_->state(inv.func, inv.arrival)) {
    case TrustState::kClosed:
      break;
    case TrustState::kOpen:
      // Quarantine tier: no model serving at all. Demand padded to the full
      // user allocation; plan_allocation additionally skips harvesting.
      inv.pred_demand = inv.user_alloc;
      inv.pred_size_related = false;
      inv.profiling_probe = false;
      break;
    case TrustState::kHalfOpen:
      // Probation tier: serve from the §4.3.2 histogram fallback path while
      // the model earns back its clean streak.
      if (profiler_hook_ != nullptr) {
        profiler_hook_->predict_fallback(inv);
      } else {
        inv.pred_demand = inv.user_alloc;
        inv.pred_size_related = false;
      }
      inv.profiling_probe = false;
      break;
  }
}

NodeId LibraPolicy::select_node(Invocation& inv, EngineApi& api) {
  last_seen_now_ = api.now();
  return scheduler_->select(inv, api);
}

double LibraPolicy::predicted_exec_time(const Invocation& inv,
                                        const Resources& alloc,
                                        EngineApi& api) const {
  sim::DemandProfile pred;
  pred.demand = inv.pred_demand;
  // pred_duration is the expected time at exactly pred_demand, so the
  // implied work is duration x predicted parallelism.
  pred.work = inv.pred_duration * std::max(1.0, inv.pred_demand.cpu);
  pred.min_mem = 0.0;
  const double t = api.exec_model().exec_time(alloc, pred);
  return std::min(t, 3600.0);  // cap runaway estimates
}

AllocationPlan LibraPolicy::plan_allocation(Invocation& inv, EngineApi& api) {
  last_seen_now_ = api.now();
  auto& pool = pool_for(inv.node);
  Resources effective = inv.user_alloc;

  // OOM graceful degradation: a rescued re-dispatch runs untouched at its
  // full user allocation — no probes, no harvesting, no borrowed grants.
  if (inv.oom_protected) return {effective};

  // Quarantine can have tripped between arrival (predict) and placement;
  // re-check with the placement clock. A quarantined function is never a
  // harvest source and never probes.
  const bool quarantined = trust_ && trust_->quarantined(inv.func, api.now());

  if (inv.profiling_probe && !quarantined) {
    // Black-box profiling window: allocate up to the platform max straight
    // from node free capacity so the monitor can observe the true peaks.
    const Resources extra =
        (inv.pred_demand - inv.user_alloc).clamped_non_negative();
    if (extra.is_zero()) return {effective};
    if (api.node(inv.node).try_reserve(inv.shard, extra)) {
      inv.probe_extra = extra;
      return {effective + extra};
    }
    // Node too busy for a probe reservation: fall through and treat the
    // invocation as ordinarily accelerable (pool grants + backfill).
  }

  const size_t f = function_index(inv.func);
  const bool mem_harvest_blocked =
      (profiler_hook_ &&
       profiler_hook_->mem_harvest_disabled(inv.func,
                                            cfg_.max_mem_safeguard_strikes)) ||
      (f < mem_strikes_.size() ? mem_strikes_[f] : 0) >=
          cfg_.max_mem_safeguard_strikes;

  // ---- Harvest (per axis where the prediction leaves slack) ----
  // With the trust layer on, the static harvest_headroom is replaced by a
  // per-function adaptive margin tracking the model's recent p95 relative
  // under-prediction (widened by safeguard/OOM strikes, decaying back).
  const double margin = trust_ ? trust_->harvest_margin(inv.func, api.now())
                               : cfg_.harvest_headroom;
  if (trust_ && !quarantined) stats_.harvest_margin_samples.push_back(margin);
  Resources target;
  target.cpu =
      std::max(cfg_.min_cpu_floor, inv.pred_demand.cpu * (1.0 + margin));
  target.mem =
      std::max(cfg_.min_mem_floor, inv.pred_demand.mem * (1.0 + margin));
  Resources harvest;
  harvest.cpu = std::max(0.0, inv.user_alloc.cpu - target.cpu);
  harvest.mem =
      mem_harvest_blocked ? 0.0 : std::max(0.0, inv.user_alloc.mem - target.mem);
  if (quarantined) harvest = {0.0, 0.0};
  if (!harvest.is_zero()) {
    effective -= harvest;
    const double est_dur = predicted_exec_time(inv, effective, api);
    pool.put(inv.id, harvest, api.now() + est_dur, api.now());
    inv.harvested_out = harvest;
    inv.was_harvested = true;
    ++stats_.harvest_puts;
  }

  // ---- Accelerate (per axis where demand exceeds the user allocation) ----
  const Resources extra =
      (inv.pred_demand - inv.user_alloc).clamped_non_negative();
  if (!extra.is_zero()) {
    HarvestResourcePool::GetOptions opt;
    opt.timeliness_order = cfg_.timeliness_aware_pool;
    opt.tenant = inv.tenant;
    if (cfg_.mem_expiry_filter && extra.mem > 0) {
      const double window = predicted_exec_time(
          inv, Resources::max(inv.user_alloc, inv.pred_demand), api);
      opt.mem_expiry_floor = api.now() + window;
    }
    const auto grants = pool.get(extra, inv.id, api.now(), opt);
    Resources granted;
    for (const auto& g : grants) granted += g.amount;
    if (!granted.is_zero()) {
      effective += granted;
      inv.borrowed_in = granted;
      inv.was_accelerated = true;
      ++stats_.borrow_gets;
    }
    if (cfg_.runtime_backfill &&
        !(inv.pred_demand - (inv.user_alloc + granted))
             .clamped_non_negative()
             .is_zero()) {
      add_backfill_candidate(inv.node, inv.id);
    }
  }
  return {effective};
}

void LibraPolicy::backfill_node(sim::NodeId node, EngineApi& api) {
  if (node < 0 || static_cast<size_t>(node) >= backfill_candidates_.size() ||
      backfill_candidates_[static_cast<size_t>(node)].empty())
    return;
  const auto& candidates = backfill_candidates_[static_cast<size_t>(node)];
  auto& pool = pool_for(node);
  std::vector<sim::InvocationId> done;
  // Least-served first so a few hungry invocations cannot starve the rest
  // across pings.
  std::vector<sim::InvocationId> order(candidates.begin(), candidates.end());
  std::sort(order.begin(), order.end(),
            [&](sim::InvocationId a, sim::InvocationId b) {
              const double sa =
                  api.invocation_alive(a)
                      ? api.invocation(a).borrowed_in.cpu +
                            api.invocation(a).borrowed_in.mem / 1024.0
                      : 1e18;
              const double sb =
                  api.invocation_alive(b)
                      ? api.invocation(b).borrowed_in.cpu +
                            api.invocation(b).borrowed_in.mem / 1024.0
                      : 1e18;
              if (sa != sb) return sa < sb;
              return a < b;
            });
  for (const auto id : order) {
    if (!api.invocation_alive(id)) {
      done.push_back(id);
      continue;
    }
    Invocation& inv = api.invocation(id);
    if (!inv.running) continue;
    const Resources gap =
        (inv.pred_demand - (inv.user_alloc + inv.borrowed_in))
            .clamped_non_negative();
    if (gap.is_zero()) {
      done.push_back(id);
      continue;
    }
    HarvestResourcePool::GetOptions opt;
    opt.timeliness_order = cfg_.timeliness_aware_pool;
    opt.tenant = inv.tenant;
    if (cfg_.mem_expiry_filter && gap.mem > 0)
      opt.mem_expiry_floor = api.now() + inv.pred_duration;
    const auto grants = pool.get(gap, inv.id, api.now(), opt);
    Resources granted;
    for (const auto& g : grants) granted += g.amount;
    LIBRA_DEBUG() << "backfill inv " << inv.id << " gap " << gap.to_string()
                  << " granted " << granted.to_string();
    if (granted.is_zero()) continue;
    api.sync_accounting(inv.id);
    inv.borrowed_in += granted;
    inv.was_accelerated = true;
    ++stats_.borrow_gets;
    api.update_effective(inv.id, inv.effective + granted);
  }
  for (const auto id : done) drop_backfill_candidate(node, id);
}

bool LibraPolicy::wants_monitor(const Invocation& inv) const {
  return cfg_.safeguard_enabled && inv.was_harvested &&
         !inv.harvested_out.is_zero();
}

void LibraPolicy::on_monitor(Invocation& inv, EngineApi& api) {
  last_seen_now_ = api.now();
  const Resources usage = api.observed_usage(inv.id);
  const double theta = cfg_.safeguard_threshold;
  bool cpu_trigger = false, mem_trigger = false;
  if (inv.harvested_out.cpu > 0 && inv.effective.cpu > 0 &&
      usage.cpu >= theta * inv.effective.cpu - 1e-9) {
    cpu_trigger = true;
  }
  if (inv.harvested_out.mem > 0 && inv.effective.mem > 0 &&
      usage.mem >= theta * inv.effective.mem - 1e-9) {
    mem_trigger = true;
  }
  if (!cpu_trigger && !mem_trigger) return;

  ++stats_.safeguard_triggers;
  inv.was_safeguarded = true;
  emit_policy_event(PolicyEventKind::kSafeguardTrigger, inv, api.now());
  if (mem_trigger) {
    add_mem_strike(inv.func);
    if (profiler_hook_) profiler_hook_->record_mem_safeguard_strike(inv.func);
  }
  if (trust_ && trust_->record_safeguard(inv.func, api.now())) {
    emit_policy_event(PolicyEventKind::kTrustDemotion, inv, api.now());
    enforce_quarantine(inv.func, api);
  }
  if (cfg_.preemptive_release_on_safeguard) {
    preemptive_release(inv, api, /*restore_allocation=*/true);
  } else {
    // Freyr: the current invocation keeps suffering; only the next one is
    // served with the user-defined allocation again (§9).
    const size_t f = function_index(inv.func);
    if (f >= suppress_next_.size()) suppress_next_.resize(f + 1, 0);
    suppress_next_[f] = 1;
  }
}

void LibraPolicy::preemptive_release(Invocation& inv, EngineApi& api,
                                     bool restore_allocation) {
  auto& pool = pool_for(inv.node);
  const auto revocations = pool.preempt_source(inv.id, api.now());
  for (const auto& rev : revocations) {
    ++stats_.pool_revocations;
    if (!api.invocation_alive(rev.borrower)) continue;
    Invocation& borrower = api.invocation(rev.borrower);
    api.sync_accounting(borrower.id);
    borrower.borrowed_in =
        (borrower.borrowed_in - rev.amount).clamped_non_negative();
    const Resources updated =
        (borrower.effective - rev.amount).clamped_non_negative();
    api.update_effective(borrower.id, updated);
    // The borrower is under-provisioned again; let backfill re-accelerate
    // it from whatever the pool holds next.
    if (cfg_.runtime_backfill)
      add_backfill_candidate(borrower.node, borrower.id);
  }
  api.sync_accounting(inv.id);
  if (restore_allocation && !inv.harvested_out.is_zero()) {
    const Resources restored = inv.effective + inv.harvested_out;
    inv.harvested_out = {0.0, 0.0};
    api.update_effective(inv.id, restored);
  } else {
    inv.harvested_out = {0.0, 0.0};
  }
}

void LibraPolicy::settle(Invocation& inv, EngineApi& api) {
  // Timeliness: everything harvested from this invocation dies with it —
  // idle volume leaves the pool, lent volume is revoked from borrowers.
  preemptive_release(inv, api, /*restore_allocation=*/false);
  // Re-harvesting: grants this invocation still holds return to the pool.
  // (The engine already folded its integrals; borrowed_in may be cleared.)
  if (!inv.borrowed_in.is_zero()) {
    pool_for(inv.node).reharvest(inv.id, api.now());
    inv.borrowed_in = {0.0, 0.0};
    ++stats_.reharvests;
  }
  drop_backfill_candidate(inv.node, inv.id);
}

void LibraPolicy::on_complete(Invocation& inv, EngineApi& api) {
  last_seen_now_ = api.now();
  settle(inv, api);
  // Score the raw model output against the observed peak (max relative
  // under-prediction across the two axes). A clean completion shortens the
  // strike count / probation streak; a bad one strikes, possibly demoting.
  if (trust_) {
    const Resources peak = api.observed_peak(inv.id);
    Resources raw = inv.pred_demand;
    if (auto it = raw_pred_.find(inv.id); it != raw_pred_.end()) {
      raw = it->second;
      raw_pred_.erase(it);
    }
    const double rel =
        std::max((peak.cpu - raw.cpu) / std::max(raw.cpu, 1e-9),
                 (peak.mem - raw.mem) / std::max(raw.mem, 1e-9));
    // A promotion happens silently inside record_completion; observe it via
    // the counter delta (only paid when a listener is installed).
    const long promos_before =
        policy_listener_ != nullptr ? trust_->promotions() : 0;
    if (trust_->record_completion(inv.func, rel, api.now())) {
      emit_policy_event(PolicyEventKind::kTrustDemotion, inv, api.now());
      enforce_quarantine(inv.func, api);
    } else if (policy_listener_ != nullptr &&
               trust_->promotions() > promos_before) {
      emit_policy_event(PolicyEventKind::kTrustPromotion, inv, api.now());
    }
  }
  // Step 5: feed actual utilization back into the profiling models.
  Observation obs;
  obs.func = inv.func;
  obs.input = inv.input;
  obs.observed_peak = api.observed_peak(inv.id);
  obs.exec_duration = std::max(0.0, inv.t_finish - inv.t_exec_start);
  predictor_->observe(obs);
}

void LibraPolicy::on_oom(Invocation& inv, EngineApi& api) {
  last_seen_now_ = api.now();
  add_mem_strike(inv.func);
  if (profiler_hook_) profiler_hook_->record_mem_safeguard_strike(inv.func);
  // An OOM kill is the strongest misprediction signal there is.
  if (trust_ && trust_->record_oom(inv.func, api.now())) {
    emit_policy_event(PolicyEventKind::kTrustDemotion, inv, api.now());
    enforce_quarantine(inv.func, api);
  }
  // The platform forcibly returns harvested resources on an OOM kill; the
  // engine then restarts the container with the user allocation.
  preemptive_release(inv, api, /*restore_allocation=*/false);
}

void LibraPolicy::on_evicted(Invocation& inv, EngineApi& api) {
  last_seen_now_ = api.now();
  // The engine is tearing this invocation off a LIVE node (OOM graceful
  // degradation). Unlike on_node_down, the pool survives — so everything
  // harvested FROM it must leave the pool (idle volume out, grants revoked)
  // and every grant it BORROWED must go back to the pool it came from.
  settle(inv, api);
  // raw_pred_ entry stays: the invocation is still alive and will be scored
  // when its re-dispatch eventually completes.
}

void LibraPolicy::on_finalized(const sim::Invocation& inv) {
  // Terminal either way (completion, loss, straggler sweep): whatever
  // bookkeeping the normal paths left behind goes now, before the record is
  // recycled. This is what keeps raw_pred_ bounded by the live count — loss
  // paths never reach the on_complete erase.
  raw_pred_.erase(inv.id);
  if (inv.node != sim::kNoNode) drop_backfill_candidate(inv.node, inv.id);
}

void LibraPolicy::enforce_quarantine(sim::FunctionId func, EngineApi& api) {
  // Sweep every running invocation of the demoted function and pull its
  // harvests back (idle pool volume and grants lent to borrowers), restoring
  // the full user allocation — the pool must hold nothing sourced from a
  // quarantined function (checked by the invariant auditor).
  for (const auto id : api.placed_invocations()) {
    if (!api.invocation_alive(id)) continue;
    Invocation& other = api.invocation(id);
    if (other.func != func || other.harvested_out.is_zero()) continue;
    preemptive_release(other, api, /*restore_allocation=*/true);
  }
}

void LibraPolicy::on_health_ping(NodeId node, EngineApi& api) {
  last_seen_now_ = api.now();
  LIBRA_DEBUG() << "ping node " << node << " t=" << api.now() << " candidates="
                << (static_cast<size_t>(node) < backfill_candidates_.size()
                        ? backfill_candidates_[static_cast<size_t>(node)].size()
                        : 0);
  if (cfg_.runtime_backfill) backfill_node(node, api);
  set_snapshot(node, pool_for(node).snapshot(api.now()));
}

void LibraPolicy::set_snapshot(NodeId node, PoolStatus status) {
  const auto n = static_cast<size_t>(node);
  if (n >= snapshots_.size()) snapshots_.resize(n + 1);
  occupied_.set(n, !status.entries.empty());
  snapshots_[n] = std::move(status);
}

void LibraPolicy::pull_back_pool(NodeId node, EngineApi& api) {
  const auto revocations = pool_for(node).preempt_all(api.now());
  for (const auto& rev : revocations) {
    ++stats_.pool_revocations;
    if (!api.invocation_alive(rev.borrower)) continue;
    Invocation& borrower = api.invocation(rev.borrower);
    api.sync_accounting(borrower.id);
    borrower.borrowed_in =
        (borrower.borrowed_in - rev.amount).clamped_non_negative();
    if (borrower.node != node) {
      // Pools are per-node so borrowers are normally co-located, and about
      // to be torn down (reaped or drain-migrated), which resets their
      // allocation; only a foreign borrower needs the real revoke.
      api.update_effective(
          borrower.id, (borrower.effective - rev.amount).clamped_non_negative());
    }
  }
  if (static_cast<size_t>(node) < backfill_candidates_.size())
    backfill_candidates_[static_cast<size_t>(node)].clear();
}

void LibraPolicy::on_node_down(NodeId node, EngineApi& api) {
  last_seen_now_ = api.now();
  // Harvest-safety invariant under churn: the dead node's pool dies with it.
  // Preemptively release every idle entry and revoke every outstanding grant
  // BEFORE the engine reaps the node, so no grant sourced there survives.
  pull_back_pool(node, api);
  // The controller keeps its stale pool snapshot: it only learns about the
  // crash from missing health pings, never from this node-side event.
}

void LibraPolicy::on_node_up(NodeId node, EngineApi& api) {
  last_seen_now_ = api.now();
  // The node rejoins with an empty pool; drop the pre-crash snapshot so the
  // first post-recovery ping advertises reality, not ghost inventory.
  set_snapshot(node, PoolStatus{});
}

void LibraPolicy::on_drain_notice(NodeId node, sim::SimTime deadline,
                                  EngineApi& api) {
  last_seen_now_ = api.now();
  (void)deadline;
  // Graceful harvest pull-back (§5.1 timeliness under spot reclamation): the
  // node announced its departure, so every idle entry leaves the pool and
  // every outstanding grant is revoked from its still-running borrower
  // BEFORE the engine drain-migrates the node's invocations. Same
  // reconciliation as on_node_down — minus the node actually being dead.
  pull_back_pool(node, api);
  // Unlike a crash — where the controller's snapshot deliberately goes stale
  // until pings catch up — the notice is platform-delivered, so stop
  // advertising inventory from the departing node immediately.
  set_snapshot(node, PoolStatus{});
}

const PoolStatus& LibraPolicy::pool_status(NodeId node) const {
  static const PoolStatus kEmpty;
  return node >= 0 && static_cast<size_t>(node) < snapshots_.size()
             ? snapshots_[static_cast<size_t>(node)]
             : kEmpty;
}

sim::PolicyStats LibraPolicy::stats() const {
  sim::PolicyStats out = stats_;
  // Accumulate in node-id order — the flat layout's index order IS node
  // order, so the floating-point sums are deterministic by construction (no
  // hash-order hazard, no sort).
  for (const auto& pool : pools_) {
    if (!pool) continue;
    // Single combined read: the (cpu, mem) idle integrals are a pair kept
    // consistent under one lock; reading them through two separate accessors
    // could interleave with a concurrent put()/get() and tear the pair.
    const auto ii = pool->idle_integrals(last_seen_now_);
    out.pool_idle_cpu_core_seconds += ii.cpu_core_seconds;
    out.pool_idle_mem_mb_seconds += ii.mem_mb_seconds;
  }
  if (trust_) {
    out.trust_demotions = trust_->demotions();
    out.trust_promotions = trust_->promotions();
    out.quarantined_functions = trust_->quarantined_count(last_seen_now_);
  }
  return out;
}

}  // namespace libra::core
