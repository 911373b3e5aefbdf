#include "sim/lifecycle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/engine.h"
#include "util/log.h"
#include "util/rng.h"

namespace libra::sim {

InvocationLifecycle::InvocationLifecycle(Engine& host,
                                         const ExecutionModel& exec)
    : host_(host), exec_(exec), monitor_lane_(host.queue().add_fifo_lane()) {}

void InvocationLifecycle::begin_execution(InvocationId id, uint64_t epoch) {
  // Epoch-guarded continuation: a recycled record means a newer epoch
  // already invalidated this event, so a miss is the guard rejection.
  Invocation* p = host_.find_invocation(id);
  if (!p) return;
  Invocation& inv = *p;
  if (inv.done || epoch != inv.placement_epoch) return;
  inv.running = true;
  inv.t_exec_start = host_.queue().now();
  inv.max_effective = Resources::max(inv.max_effective, inv.effective);
  inv.progress = 0.0;
  inv.last_progress_update = host_.queue().now();
  host_.cluster().node(inv.node).invocation_started();
  host_.cluster().refresh_usage(inv, /*stopping=*/false);
  host_.cluster().record_series();
  schedule_progress_events(inv);
  if (host_.policy().wants_monitor(inv)) {
    inv.monitor_event = host_.queue().schedule_fifo(
        monitor_lane_, host_.queue().now() + host_.config().monitor_interval,
        [this, id] { monitor_tick(id); });
  }
  host_.notify_audit(EngineEventKind::kExecStart, id, inv.node);
}

void InvocationLifecycle::schedule_progress_events(Invocation& inv) {
  if (inv.completion_event != kInvalidEvent) {
    host_.queue().cancel(inv.completion_event);
    inv.completion_event = kInvalidEvent;
  }
  const uint64_t generation = ++inv.completion_generation;
  const InvocationId id = inv.id;
  if (exec_.below_oom_floor(inv.effective, inv.truth)) {
    // Container can't even hold the runtime: OOM fires immediately.
    inv.completion_event = host_.queue().schedule_after(
        1e-3, [this, id, generation] { handle_oom(id, generation); });
    return;
  }
  const double r = exec_.rate(inv.effective, inv.truth);
  if (r <= 0.0) {
    LIBRA_ERROR() << "invocation " << id << " has zero progress rate";
    return;
  }
  const double remaining = std::max(0.0, inv.truth.work - inv.progress);
  inv.completion_event =
      host_.queue().schedule_after(remaining / r, [this, id, generation] {
        handle_completion(id, generation);
      });
}

void InvocationLifecycle::fold_progress(Invocation& inv) {
  const double dt =
      std::max(0.0, host_.queue().now() - inv.last_progress_update);
  if (dt > 0.0 && inv.running) {
    inv.progress += exec_.rate(inv.effective, inv.truth) * dt;
    inv.progress = std::min(inv.progress, inv.truth.work + 1e-9);
    inv.reassigned_core_seconds +=
        (inv.borrowed_in.cpu - inv.harvested_out.cpu) * dt;
    inv.reassigned_mb_seconds +=
        (inv.borrowed_in.mem - inv.harvested_out.mem) * dt;
  }
  inv.last_progress_update = host_.queue().now();
}

void InvocationLifecycle::update_effective(InvocationId id,
                                           const Resources& effective) {
  Invocation& inv = host_.invocation(id);
  if (inv.done) return;
  if (!inv.running) {
    // Allocation changed before the container started (e.g. a grant was
    // revoked during the cold start); just adopt the new value.
    inv.effective = effective;
    return;
  }
  fold_progress(inv);
  inv.effective = effective;
  inv.max_effective = Resources::max(inv.max_effective, effective);
  host_.cluster().refresh_usage(inv, /*stopping=*/false);
  host_.cluster().record_series();
  schedule_progress_events(inv);
}

Resources InvocationLifecycle::observed_usage(InvocationId id) const {
  const Invocation* p = host_.find_invocation(id);
  if (!p) throw std::out_of_range("observed_usage: unknown invocation");
  const Invocation& inv = *p;
  if (!inv.running) return {0.0, 0.0};
  const SimTime now = host_.queue().now();
  // Instantaneous usage fluctuates below the peak; a monitor samples one
  // instant. Deterministic per (invocation, tick) jitter in [0.88, 1].
  const uint64_t tick = static_cast<uint64_t>(
      now / std::max(1e-3, host_.config().monitor_interval));
  const double jitter =
      0.88 + 0.12 * (static_cast<double>(util::mix64(
                         static_cast<uint64_t>(inv.id) * 0x9e37 + tick) >>
                     11) *
                     0x1.0p-53);
  const double cpu =
      std::min(inv.effective.cpu,
               exec_.cpu_usage(inv.effective, inv.truth) * jitter);
  const double frac =
      inv.truth.work > 0
          ? std::min(1.0, (inv.progress +
                           exec_.rate(inv.effective, inv.truth) *
                               std::max(0.0, now - inv.last_progress_update)) /
                              inv.truth.work)
          : 1.0;
  const double mem =
      std::min(exec_.mem_usage(frac, inv.truth), inv.effective.mem);
  return {cpu, mem};
}

void InvocationLifecycle::sync_accounting(InvocationId id) {
  Invocation* p = host_.find_invocation(id);
  if (!p) return;
  Invocation& inv = *p;
  if (inv.running && !inv.done) fold_progress(inv);
}

Resources InvocationLifecycle::observed_peak(InvocationId id) const {
  const Invocation* p = host_.find_invocation(id);
  if (!p) throw std::out_of_range("observed_peak: unknown invocation");
  const Invocation& inv = *p;
  return Resources::min(inv.truth.demand, inv.max_effective);
}

void InvocationLifecycle::monitor_tick(InvocationId id) {
  Invocation* p = host_.find_invocation(id);
  if (!p) return;
  Invocation& inv = *p;
  inv.monitor_event = kInvalidEvent;
  if (inv.done || !inv.running) return;
  if (host_.fault_active() &&
      host_.fault()->suppress_monitor_tick(inv.node, host_.queue().now())) {
    // The monitor agent missed this window; the safeguard fires a tick late.
    ++host_.metrics().suppressed_monitor_ticks;
  } else {
    host_.policy().on_monitor(inv, host_.api());
  }
  if (!inv.done && host_.policy().wants_monitor(inv)) {
    inv.monitor_event = host_.queue().schedule_fifo(
        monitor_lane_, host_.queue().now() + host_.config().monitor_interval,
        [this, id] { monitor_tick(id); });
  }
  host_.notify_audit(EngineEventKind::kMonitor, id, inv.node);
}

void InvocationLifecycle::handle_oom(InvocationId id, uint64_t generation) {
  Invocation* p = host_.find_invocation(id);
  if (!p) return;  // generation-guarded; a recycled record rejects the event
  Invocation& inv = *p;
  if (inv.done || generation != inv.completion_generation) return;
  inv.completion_event = kInvalidEvent;  // this event; it just fired
  fold_progress(inv);
  ++inv.oom_count;
  ++host_.metrics().oom_events;
  // Policy must pull back inv's harvested resources.
  host_.policy().on_oom(inv, host_.api());
  if (host_.config().oom_redispatch) {
    // Graceful degradation: tear the container down and re-dispatch on the
    // dedicated OOM budget instead of restarting in place.
    redispatch_after_oom(inv);
    host_.notify_audit(EngineEventKind::kOom);
    return;
  }
  // Restart: lose all progress, pay the restart penalty, resume with the
  // user-defined allocation plus whatever the invocation still borrows.
  inv.progress = 0.0;
  inv.effective = inv.user_alloc + inv.borrowed_in + inv.probe_extra;
  inv.last_progress_update =
      host_.queue().now() + host_.config().oom_restart_penalty;
  host_.cluster().refresh_usage(inv, false);
  host_.cluster().record_series();
  const uint64_t next_gen = ++inv.completion_generation;
  const InvocationId iid = inv.id;
  host_.queue().schedule_after(
      host_.config().oom_restart_penalty, [this, iid, next_gen] {
        Invocation* v = host_.find_invocation(iid);
        if (!v || v->done || next_gen != v->completion_generation) return;
        schedule_progress_events(*v);
      });
  host_.notify_audit(EngineEventKind::kOom);
}

void InvocationLifecycle::redispatch_after_oom(Invocation& inv) {
  // The policy already pulled back everything harvested from it (on_oom);
  // on_evicted must additionally return what it still BORROWS — its node and
  // the pool live on, unlike the node-death path.
  host_.policy().on_evicted(inv, host_.api());
  teardown_placement(inv, /*release_container=*/true);
  inv.profiling_probe = false;
  if (inv.oom_retry_count >= host_.config().max_oom_retries) {
    ++host_.metrics().oom_terminal_losses;
    lose_invocation(inv);
  } else {
    const double backoff =
        std::min(host_.config().retry_backoff_cap,
                 host_.config().retry_backoff_base *
                     std::pow(2.0, inv.oom_retry_count));
    ++inv.oom_retry_count;
    ++host_.metrics().oom_retries;
    // The rescue contract: the next dispatch runs at the full user-defined
    // allocation — no harvesting, no probes (see LibraPolicy).
    inv.oom_protected = true;
    const InvocationId id = inv.id;
    host_.queue().schedule_after(
        host_.config().oom_restart_penalty + backoff,
        [this, id] { host_.controller().requeue_after_fault(id); });
  }
  host_.controller().retry_waiting();  // freed reservation may unpark someone
}

void InvocationLifecycle::handle_completion(InvocationId id,
                                            uint64_t generation) {
  Invocation* p = host_.find_invocation(id);
  if (!p) return;  // generation-guarded; a recycled record rejects the event
  Invocation& inv = *p;
  if (inv.done || generation != inv.completion_generation) return;
  inv.completion_event = kInvalidEvent;  // this event; it just fired
  fold_progress(inv);
  inv.done = true;
  inv.running = false;
  inv.t_finish = host_.queue().now();
  if (inv.monitor_event != kInvalidEvent) {
    host_.queue().cancel(inv.monitor_event);
    inv.monitor_event = kInvalidEvent;
  }
  host_.cluster().refresh_usage(inv, /*stopping=*/true);
  Node& n = host_.cluster().node(inv.node);
  n.invocation_finished();
  n.containers().release(inv.func, host_.queue().now());
  n.release(inv.shard, inv.user_alloc + inv.probe_extra);
  host_.cluster().erase_placed(id, inv.node);
  host_.cluster().record_series();

  host_.policy().on_complete(inv, host_.api());

  host_.mark_terminal();
  host_.metrics().makespan_end =
      std::max(host_.metrics().makespan_end, host_.queue().now());
  finalize_record(inv);
  host_.controller().retry_waiting();
  host_.notify_audit(EngineEventKind::kCompletion, id, n.id());
}

void InvocationLifecycle::teardown_placement(Invocation& inv,
                                             bool release_container) {
  fold_progress(inv);
  ++inv.completion_generation;  // invalidates completion / OOM events
  ++inv.placement_epoch;        // invalidates a pending container start
  if (inv.completion_event != kInvalidEvent) {
    host_.queue().cancel(inv.completion_event);
    inv.completion_event = kInvalidEvent;
  }
  if (inv.monitor_event != kInvalidEvent) {
    host_.queue().cancel(inv.monitor_event);
    inv.monitor_event = kInvalidEvent;
  }
  host_.cluster().refresh_usage(inv, /*stopping=*/true);
  Node& n = host_.cluster().node(inv.node);
  if (inv.running) n.invocation_finished();
  if (release_container) n.containers().release(inv.func, host_.queue().now());
  n.release(inv.shard, inv.user_alloc + inv.probe_extra);
  host_.cluster().erase_placed(inv.id, inv.node);
  // Whatever was harvested from / lent to it is gone from its perspective;
  // the policy already reconciled its pool state (on_node_down for a crash,
  // on_drain_notice for a graceful drain, on_oom + on_evicted for an OOM
  // re-dispatch).
  inv.running = false;
  inv.node = kNoNode;
  inv.progress = 0.0;
  inv.cold_start = false;
  inv.harvested_out = Resources{};
  inv.borrowed_in = Resources{};
  inv.probe_extra = Resources{};
  inv.effective = inv.user_alloc;
  host_.cluster().record_series();
}

void InvocationLifecycle::kill_invocation(InvocationId id) {
  Invocation& inv = host_.invocation(id);
  if (inv.done || inv.node == kNoNode) return;
  // The node died with its whole container pool; nothing to release there.
  teardown_placement(inv, /*release_container=*/false);
  retry_or_lose(inv, 0.0);
}

void InvocationLifecycle::drain_invocation(InvocationId id) {
  Invocation& inv = host_.invocation(id);
  // An invocation waiting out a retry backoff (node == kNoNode) holds
  // nothing on the draining node; touching it here would double-count the
  // drain against its fault-retry budget.
  if (inv.done || inv.node == kNoNode) return;
  teardown_placement(inv, /*release_container=*/true);
  ++host_.metrics().drain_evictions;
  // Budget-free requeue: no fault_retry_count increment, no backoff. The
  // draining gate in commit_one keeps it off the doomed node.
  const InvocationId iid = inv.id;
  host_.queue().schedule_after(
      0.0, [this, iid] { host_.controller().requeue_after_fault(iid); });
}

void InvocationLifecycle::retry_or_lose(Invocation& inv, double extra_delay) {
  if (inv.fault_retry_count >= host_.config().max_fault_retries) {
    lose_invocation(inv);
    return;
  }
  const double backoff =
      std::min(host_.config().retry_backoff_cap,
               host_.config().retry_backoff_base *
                   std::pow(2.0, inv.fault_retry_count));
  ++inv.fault_retry_count;
  ++host_.metrics().fault_retries;
  const InvocationId id = inv.id;
  host_.queue().schedule_after(
      extra_delay + backoff,
      [this, id] { host_.controller().requeue_after_fault(id); });
}

void InvocationLifecycle::lose_invocation(Invocation& inv) {
  if (inv.done) return;
  inv.done = true;
  inv.running = false;
  inv.lost = true;
  ++host_.metrics().lost_invocations;
  host_.mark_terminal();  // the run must be able to finish without it
  finalize_record(inv);
}

void InvocationLifecycle::finalize_record(Invocation& inv) {
  InvocationRecord rec;
  rec.id = inv.id;
  rec.func = inv.func;
  rec.arrival = inv.arrival;
  rec.exec_start = inv.t_exec_start;
  rec.finish = inv.t_finish;
  rec.completed = inv.t_finish >= 0.0;
  rec.lost = inv.lost;
  rec.fault_retries = inv.fault_retry_count;
  rec.oom_retries = inv.oom_retry_count;
  rec.outcome = inv.outcome();
  rec.cold_start = inv.cold_start;
  rec.oom_count = inv.oom_count;
  rec.user_alloc = inv.user_alloc;
  rec.pred_demand = inv.pred_demand;
  rec.true_demand = inv.truth.demand;
  rec.reassigned_core_seconds = inv.reassigned_core_seconds;
  rec.reassigned_mb_seconds = inv.reassigned_mb_seconds;
  if (rec.completed) {
    rec.response_latency = inv.response_latency();
    // Eq. 1 baseline: same pipeline latency, execution with the static
    // user-defined allocation.
    const double pipeline = inv.t_exec_start - inv.arrival;
    rec.user_latency = pipeline + exec_.exec_time(inv.user_alloc, inv.truth);
    rec.speedup = rec.user_latency > 0
                      ? (rec.user_latency - rec.response_latency) /
                            rec.user_latency
                      : 0.0;
    rec.stage_frontend = host_.config().frontend_delay;
    rec.stage_profiler = host_.config().profiler_delay;
    rec.stage_scheduler =
        std::max(0.0, inv.t_sched_done - inv.t_sched_enqueue);
    rec.stage_pool = host_.config().pool_op_delay;
    rec.stage_container = std::max(0.0, inv.t_exec_start - inv.t_pool_done);
    rec.stage_exec = std::max(0.0, inv.t_finish - inv.t_exec_start);
  }
  RunMetrics& m = host_.metrics();
  ++m.finalized_records;
  if (rec.completed) ++m.finalized_completed;
  if (!rec.completed && !rec.lost) ++m.finalized_incomplete;
  if (host_.config().record_sink) host_.config().record_sink->on_record(rec);
  if (host_.config().retain_records) m.invocations.push_back(rec);
  // Every terminal path funnels through here (completion, loss, straggler
  // sweep), so this is where policies drop per-invocation bookkeeping —
  // nothing may reference the id once the record is recycled.
  host_.policy().on_finalized(inv);
  finalized_.push_back(inv.id);
  // A terminal path that skipped teardown would leave the id on this node's
  // placed list or in its pool; marking the node makes the next audit check
  // look there. Correct paths have released the reservation (which marks)
  // or reset inv.node, and the end-of-run stragglers meet the run_end sweep,
  // so a healthy run checks nothing more for it.
  if (inv.node != kNoNode) host_.cluster().mark_touched(inv.node);
  // Terminal either way (completion, loss, or straggler sweep): the record
  // is eligible for free-list recycling once the current event unwinds.
  host_.request_recycle(inv.id);
}

}  // namespace libra::sim
