#include "sim/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/audit.h"
#include "util/log.h"

namespace libra::sim {

Engine::Engine(EngineConfig cfg, std::shared_ptr<Policy> policy)
    : cfg_(std::move(cfg)), policy_(std::move(policy)) {
  if (!policy_) throw std::invalid_argument("Engine: null policy");
  // Knob validity (including fault plan/profile) lives on EngineConfig so the
  // scenario fuzzer can use the exact predicate the engine enforces.
  cfg_.validate();
  cluster_ = std::make_unique<ClusterState>(*this);
  lifecycle_ = std::make_unique<InvocationLifecycle>(*this, exec_);
  controller_ = std::make_unique<ShardedController>(*this);
  ctrlplane_ = std::make_unique<ctrl::ControlPlane>(*this);
}

Invocation& Engine::invocation(InvocationId id) {
  Invocation* p = invocations_.find(id);
  if (!p) throw std::out_of_range("Engine: unknown invocation id");
  return *p;
}

bool Engine::invocation_alive(InvocationId id) const {
  const Invocation* p = invocations_.find(id);
  return p && !p->done;
}

void Engine::notify_audit(EngineEventKind kind, InvocationId inv,
                          NodeId node_id) {
  ++audit_event_id_;
  util::audit::set_context(audit_event_id_, now());
  if (cfg_.audit_hook)
    cfg_.audit_hook->on_engine_event(
        *this, EngineEvent{kind, audit_event_id_, inv, node_id});
  // The marks describe what this event (and any unaudited work since the
  // previous one) changed; the hook has consumed them.
  cluster_->clear_touched();
  lifecycle_->clear_finalized();
}

RunMetrics Engine::run(gen::TraceSource& source) {
  const auto first = source.peek_arrival();
  if (!first.has_value()) return std::move(metrics_);
  // `!(x >= 0)` instead of `x < 0`: a NaN arrival must be rejected here,
  // not admitted into the event queue where it would poison the ordering.
  if (!(*first >= 0.0))
    throw std::invalid_argument(
        "Engine: negative or NaN arrival time in stream");
  source_done_ = false;
  metrics_.first_arrival = *first;
  // The churn horizon comes from the source's declared bound; for a
  // MaterializedSource that is the exact last arrival.
  fault_ = std::make_unique<fault::FaultInjector>(
      cfg_.fault_plan, cfg_.fault_profile, cluster_->nodes().size(),
      source.horizon() + cfg_.churn_horizon_pad);
  for (const auto& ev : fault_->churn()) {
    const NodeId nid = ev.node;
    if (ev.down)
      queue_.schedule(ev.time, [this, nid] { cluster_->on_node_down(nid); });
    else
      queue_.schedule(ev.time, [this, nid] { cluster_->on_node_up(nid); });
  }
  schedule_drain_notices();
  cluster_->start_health_pings(metrics_.first_arrival);
  ctrlplane_->start(metrics_.first_arrival);
  SimTime last_admitted = *first;
  for (;;) {
    // Admit everything due at or before the next event. Arrivals enter on
    // the event queue's arrival lane, so they beat every same-time dynamic
    // event, as they did when the golden digests were captured with every
    // arrival scheduled up front.
    while (!source_done_) {
      const auto at = source.peek_arrival();
      if (!at.has_value()) {
        source_done_ = true;
        break;
      }
      // NaN-proof like the first-arrival check above.
      if (!(*at >= last_admitted))
        throw std::invalid_argument(
            "Engine: arrival " + std::to_string(*at) + " after " +
            std::to_string(last_admitted) +
            " (stream not sorted by arrival time, or NaN)");
      if (*at > queue_.next_time()) break;
      last_admitted = *at;
      admit(source.next());
    }
    if (!queue_.step()) break;
    if (!pending_recycle_.empty()) drain_recycle();
  }
  return finish_run();
}

void Engine::schedule_drain_notices() {
  if (cfg_.spot_drain_notice <= 0.0) return;
  for (const auto& o : cfg_.fault_plan.outages) {
    if (!o.spot) continue;
    const NodeId nid = o.node;
    const SimTime down_at = o.down_at;
    const SimTime at = std::max(0.0, down_at - cfg_.spot_drain_notice);
    queue_.schedule(at,
                    [this, nid, down_at] { cluster_->on_drain_notice(nid, down_at); });
  }
}

void Engine::admit(Invocation&& inv) {
  const InvocationId id = inv.id;
  const SimTime at = inv.arrival;
  ++total_;
  // The store reuses a recycled slot (and the record's heap buffers) when
  // the free list is non-empty — the old extract()/insert(node) path.
  if (!invocations_.insert(id, std::move(inv)))
    throw std::invalid_argument("Engine: duplicate invocation id");
  metrics_.peak_live_records = std::max(
      metrics_.peak_live_records, static_cast<long>(invocations_.size()));
  queue_.schedule_arrival(at, [this, id] { on_arrival(id); });
}

void Engine::drain_recycle() {
  for (const InvocationId id : pending_recycle_) {
    Invocation* p = invocations_.find(id);
    if (!p) continue;
    Invocation& inv = *p;
    // A recycled record must have no live continuation: terminal, with its
    // tracked events disarmed. Epoch/generation-guarded events that still
    // hold the id resolve through find_invocation() and see the miss as the
    // guard rejection it is.
    LIBRA_AUDIT_CHECK(inv.done,
                      "recycling non-terminal invocation " << inv.id);
    LIBRA_AUDIT_CHECK(inv.completion_event == kInvalidEvent &&
                          inv.monitor_event == kInvalidEvent,
                      "recycling invocation " << inv.id
                                              << " with armed events");
    notify_audit(EngineEventKind::kRecycle, id);
    invocations_.erase(id);
  }
  pending_recycle_.clear();
}

RunMetrics Engine::finish_run() {
  // Park records for anything that never reached completion (capacity
  // starvation) so the caller sees every invocation exactly once. Finalize
  // in id order, never in hash order: these records land in
  // metrics_.invocations, which the exporters and replay digests consume.
  std::vector<InvocationId> unfinished;
  // Slot-order walk; the sort below restores id order before finalization.
  invocations_.for_each([&unfinished](InvocationId id, const Invocation& inv) {
    if (!inv.done) unfinished.push_back(id);
  });
  std::sort(unfinished.begin(), unfinished.end());
  for (InvocationId id : unfinished) lifecycle_->finalize_record(invocation(id));
  // After the stragglers, so the auditor's closing full sweep sees the
  // run's final state.
  notify_audit(EngineEventKind::kRunEnd);
  // Every record was finalized exactly once, so the finalize-time counter
  // is the incomplete count whether or not the records were retained.
  metrics_.incomplete = metrics_.finalized_incomplete;
  if (metrics_.incomplete > 0)
    LIBRA_WARN() << metrics_.incomplete
                 << " invocations never completed (capacity starvation?)";
  if (metrics_.lost_invocations > 0)
    LIBRA_WARN() << metrics_.lost_invocations
                 << " invocations lost to fault injection";
  long cold = 0, warm = 0;
  for (const auto& node : cluster_->nodes()) {
    cold += node.containers().total_cold_starts();
    warm += node.containers().total_warm_starts();
  }
  metrics_.cold_starts = cold;
  metrics_.warm_starts = warm;
  metrics_.control = ctrlplane_->stats();
  metrics_.policy = policy_->stats();
  return std::move(metrics_);
}

void Engine::on_arrival(InvocationId id) {
  queue_.schedule(now() + cfg_.frontend_delay, [this, id] { on_profiled(id); });
  notify_audit(EngineEventKind::kArrival, id);
}

void Engine::on_profiled(InvocationId id) {
  Invocation& inv = invocation(id);
  policy_->predict(inv);
  queue_.schedule(now() + cfg_.profiler_delay,
                  [this, id] { controller_->admit(id); });
}

}  // namespace libra::sim
