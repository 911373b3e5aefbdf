#include "obs/obs_session.h"

#include <algorithm>
#include <cstdio>

#include "core/harvest_pool.h"
#include "obs/exporters.h"
#include "sim/metrics.h"
#include "sim/policy.h"
#include "util/stats.h"

namespace libra::obs {

namespace {

constexpr int kControllerPid = 0;

int pid_of(sim::NodeId node) {
  return node == sim::kNoNode ? kControllerPid : static_cast<int>(node) + 1;
}

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// How many samples of each cluster StepSeries finish() imports; keeps the
/// CSV bounded for long runs while preserving the shape of the timeline.
constexpr size_t kSeriesImportCap = 2048;

}  // namespace

ObsSession::ObsSession(ObsConfig cfg)
    : cfg_(cfg), trace_(cfg.max_trace_events) {
  cfg_.validate();
  c_arrivals_ = &metrics_.counter("engine.arrivals");
  c_placements_ = &metrics_.counter("engine.placements");
  c_completions_ = &metrics_.counter("engine.completions");
  c_parks_ = &metrics_.counter("engine.parks");
  c_ooms_ = &metrics_.counter("engine.oom_events");
  c_node_down_ = &metrics_.counter("fault.node_down");
  c_node_up_ = &metrics_.counter("fault.node_up");
  c_pool_put_ = &metrics_.counter("pool.puts");
  c_pool_get_ = &metrics_.counter("pool.gets");
  c_pool_preempt_source_ = &metrics_.counter("pool.preempt_source");
  c_pool_reharvest_ = &metrics_.counter("pool.reharvests");
  c_pool_preempt_all_ = &metrics_.counter("pool.preempt_all");
  c_safeguards_ = &metrics_.counter("policy.safeguard_triggers");
  c_trust_demotions_ = &metrics_.counter("policy.trust_demotions");
  c_trust_promotions_ = &metrics_.counter("policy.trust_promotions");
  h_queue_wait_ = &metrics_.histogram("sched_queue_wait_s",
                                      {/*min_positive=*/1e-6});
  h_latency_ = &metrics_.histogram("invocation_response_latency_s",
                                   {/*min_positive=*/1e-4});
  h_grant_lifetime_ = &metrics_.histogram("grant_lifetime_s",
                                          {/*min_positive=*/1e-4});
  if (!cfg_.ndjson_path.empty()) {
    ndjson_out_ = std::make_unique<std::ofstream>(cfg_.ndjson_path);
    if (!*ndjson_out_)
      throw std::runtime_error("ObsSession: cannot open ndjson trace file " +
                               cfg_.ndjson_path);
    trace_.set_sink(ndjson_out_.get());
  }
}

LogHistogram& ObsSession::shard_decision_hist(int shard) {
  auto it = h_shard_cost_.find(shard);
  if (it == h_shard_cost_.end())
    it = h_shard_cost_
             .emplace(shard, &metrics_.histogram(
                                 "sched_decision_cost.shard" +
                                     std::to_string(shard),
                                 {/*min_positive=*/1e-6}))
             .first;
  return *it->second;
}

void ObsSession::ensure_metadata(sim::EngineApi& api) {
  if (metadata_done_) return;
  metadata_done_ = true;
  trace_.metadata(kControllerPid, "process_name",
                  "{\"name\":\"controller\"}");
  const auto n = api.nodes().size();
  for (size_t i = 0; i < n; ++i)
    trace_.metadata(static_cast<int>(i) + 1, "process_name",
                    "{\"name\":\"node " + std::to_string(i) + "\"}");
}

void ObsSession::open_span(double ts, long long inv, const char* name,
                           std::string args, sim::NodeId node) {
  if (inv < 0) return;
  auto& st = span_state_[inv];
  st.open = true;
  st.name = name;
  st.node = node;
  trace_.begin(ts, kControllerPid, inv, name, "invocation", std::move(args));
}

void ObsSession::close_span(double ts, long long inv) {
  if (inv < 0) return;
  auto it = span_state_.find(inv);
  if (it == span_state_.end() || !it->second.open) return;
  trace_.end(ts, kControllerPid, inv, it->second.name, "invocation");
  it->second.open = false;
}

void ObsSession::close_spans_on_node(double ts, sim::NodeId node) {
  if (node == sim::kNoNode) return;
  std::vector<long long> victims;
  // LIBRA_LINT_ALLOW(unordered-iteration): collects ids into a vector that is sorted before use
  for (const auto& [id, st] : span_state_)
    if (st.open && st.node == node) victims.push_back(id);
  std::sort(victims.begin(), victims.end());
  for (const long long id : victims) close_span(ts, id);
}

void ObsSession::on_engine_event(sim::EngineApi& api,
                                 const sim::EngineEvent& ev) {
  using Kind = sim::EngineEventKind;
  if (inner_hook_ != nullptr) inner_hook_->on_engine_event(api, ev);
  // run_end only closes the audit (the auditor's final sweep); it is not a
  // cluster event and must not move the trace's last timestamp.
  if (ev.kind == Kind::kRunEnd) return;
  ensure_metadata(api);
  const double ts = api.now();
  last_ts_ = std::max(last_ts_, ts);
  const char* what = sim::engine_event_name(ev.kind);

  switch (ev.kind) {
    case Kind::kArrival:
      c_arrivals_->inc();
      open_span(ts, ev.inv, "queued");
      break;
    case Kind::kPlacement:
      c_placements_->inc();
      if (ev.inv >= 0) {
        const auto& inv = api.invocation(ev.inv);
        const double wait =
            std::max(0.0, inv.t_sched_done - inv.t_sched_enqueue);
        h_queue_wait_->record(wait);
        shard_decision_hist(static_cast<int>(inv.shard)).record(wait);
        close_span(ts, ev.inv);
        open_span(ts, ev.inv, "startup",
                  "{\"node\":" + std::to_string(ev.node) +
                      ",\"cold\":" + (inv.cold_start ? "true" : "false") +
                      "}",
                  ev.node);
      }
      break;
    case Kind::kExecStart:
      close_span(ts, ev.inv);
      open_span(ts, ev.inv, "running",
                "{\"node\":" + std::to_string(ev.node) + "}", ev.node);
      break;
    case Kind::kCompletion:
      c_completions_->inc();
      close_span(ts, ev.inv);
      if (ev.inv >= 0)
        h_latency_->record(api.invocation(ev.inv).response_latency());
      break;
    case Kind::kOom: {
      c_ooms_->inc();
      // Redispatch mode evicts the invocation (running cleared); classic
      // mode restarts it in place, so the "running" span stays open.
      const bool evicted = ev.inv >= 0 && !api.invocation(ev.inv).running;
      trace_.instant(ts, pid_of(ev.node), ev.inv >= 0 ? ev.inv : 0, what,
                     "engine",
                     std::string("{\"evicted\":") +
                         (evicted ? "true" : "false") + "}");
      if (evicted) close_span(ts, ev.inv);
      break;
    }
    case Kind::kPark:
      c_parks_->inc();
      if (ev.inv >= 0)
        trace_.instant(ts, kControllerPid, ev.inv, what, "engine");
      break;
    case Kind::kRequeue:
      close_span(ts, ev.inv);
      open_span(ts, ev.inv, "queued");
      break;
    case Kind::kColdStartFailure:
      if (ev.inv >= 0)
        trace_.instant(ts, pid_of(ev.node), ev.inv, what, "fault");
      break;
    case Kind::kNodeDown:
      c_node_down_->inc();
      trace_.instant(ts, pid_of(ev.node), 0, what, "fault");
      close_spans_on_node(ts, ev.node);
      break;
    case Kind::kNodeUp:
      c_node_up_->inc();
      trace_.instant(ts, pid_of(ev.node), 0, what, "fault");
      break;
    case Kind::kHealthPing:
      if (++ping_seq_ % cfg_.series_every_n == 0) {
        size_t placed = 0;
        for (const auto& n : api.nodes())
          placed += api.placed_on(n.id()).size();
        metrics_.series("cluster.placed_invocations")
            .sample(ts, static_cast<double>(placed));
      }
      break;
    default:
      break;
  }
}

void ObsSession::on_pool_event(const core::PoolEvent& ev) {
  if (inner_pool_ != nullptr) inner_pool_->on_pool_event(ev);
  last_ts_ = std::max(last_ts_, ev.now);
  const int pid = pid_of(ev.node);
  const char* name = "pool_op";
  switch (ev.op) {
    case core::PoolOp::kPut:
      name = "pool_put";
      c_pool_put_->inc();
      put_time_.try_emplace({ev.pool, ev.subject}, ev.now);
      break;
    case core::PoolOp::kGet:
      name = "pool_get";
      c_pool_get_->inc();
      break;
    case core::PoolOp::kPreemptSource: {
      name = "pool_preempt_source";
      c_pool_preempt_source_->inc();
      auto it = put_time_.find({ev.pool, ev.subject});
      if (it != put_time_.end()) {
        h_grant_lifetime_->record(ev.now - it->second);
        put_time_.erase(it);
      }
      break;
    }
    case core::PoolOp::kReharvest:
      name = "pool_reharvest";
      c_pool_reharvest_->inc();
      break;
    case core::PoolOp::kPreemptAll: {
      name = "pool_preempt_all";
      c_pool_preempt_all_->inc();
      // Everything still parked in this pool is released at once.
      auto it = put_time_.lower_bound({ev.pool, 0});
      while (it != put_time_.end() && it->first.first == ev.pool) {
        h_grant_lifetime_->record(ev.now - it->second);
        it = put_time_.erase(it);
      }
      break;
    }
  }
  trace_.instant(ev.now, pid, 0, name, "pool",
                 "{\"subject\":" + std::to_string(ev.subject) + "}");
  if (ev.pool != nullptr && ++pool_seq_ % cfg_.series_every_n == 0) {
    const sim::Resources idle = ev.pool->idle_total();
    trace_.counter(ev.now, pid, "pool_idle",
                   "{\"cpu\":" + fmt3(idle.cpu) +
                       ",\"mem_mb\":" + fmt3(idle.mem) + "}");
    if (ev.node != sim::kNoNode) {
      const std::string suffix = ".node" + std::to_string(ev.node);
      metrics_.series("pool.idle_cpu" + suffix).sample(ev.now, idle.cpu);
      metrics_.series("pool.idle_mem_mb" + suffix).sample(ev.now, idle.mem);
    }
  }
}

void ObsSession::on_policy_event(const core::PolicyEvent& ev) {
  last_ts_ = std::max(last_ts_, ev.now);
  const char* name = "policy_event";
  switch (ev.kind) {
    case core::PolicyEventKind::kSafeguardTrigger:
      name = "safeguard_trigger";
      c_safeguards_->inc();
      break;
    case core::PolicyEventKind::kTrustDemotion:
      name = "trust_demotion";
      c_trust_demotions_->inc();
      break;
    case core::PolicyEventKind::kTrustPromotion:
      name = "trust_promotion";
      c_trust_promotions_->inc();
      break;
  }
  trace_.instant(ev.now, pid_of(ev.node), ev.inv, name, "policy",
                 "{\"func\":" + std::to_string(ev.func) + "}");
}

void ObsSession::finish(const sim::RunMetrics& metrics) {
  const double end_ts = std::max(last_ts_, metrics.makespan_end);

  // Close spans of invocations that never reached a terminal engine event
  // (lost mid-flight, parked at the horizon), deterministically by id.
  std::vector<long long> open;
  // LIBRA_LINT_ALLOW(unordered-iteration): collects ids into a vector that is sorted before use
  for (const auto& [id, st] : span_state_)
    if (st.open) open.push_back(id);
  std::sort(open.begin(), open.end());
  for (const long long id : open) close_span(end_ts, id);

  metrics_.gauge("run.makespan_end").set(metrics.makespan_end);
  metrics_.gauge("run.lost_invocations")
      .set(static_cast<double>(metrics.lost_invocations));
  long completed = 0;
  auto& h_speedup = metrics_.histogram("invocation_speedup",
                                       {/*min_positive=*/1e-4,
                                        /*growth=*/2.0, /*max_buckets=*/32});
  for (const auto& rec : metrics.invocations) {
    if (!rec.completed) continue;
    ++completed;
    h_speedup.record(rec.speedup);
  }
  metrics_.gauge("run.completed").set(static_cast<double>(completed));

  // Control-plane stats, only when the run actually exercised the control
  // plane (multiple controllers or a gossip-fed cache): the classic
  // single-controller transparent path keeps its summary unchanged.
  const sim::ctrl::ControlPlaneStats& cp = metrics.control;
  if (cp.controllers.size() > 1 || cp.total_gossip_updates() > 0) {
    metrics_.gauge("ctrl.controllers")
        .set(static_cast<double>(cp.controllers.size()));
    metrics_.gauge("ctrl.decisions")
        .set(static_cast<double>(cp.total_decisions()));
    metrics_.gauge("ctrl.conflicts")
        .set(static_cast<double>(cp.total_conflicts()));
    metrics_.gauge("ctrl.steals.batches")
        .set(static_cast<double>(cp.steal_batches));
    metrics_.gauge("ctrl.steals.total")
        .set(static_cast<double>(cp.total_stolen));
    metrics_.gauge("ctrl.gossip.updates")
        .set(static_cast<double>(cp.total_gossip_updates()));
    metrics_.gauge("ctrl.gossip.drops")
        .set(static_cast<double>(cp.total_gossip_drops()));
    for (size_t i = 0; i < cp.controllers.size(); ++i) {
      const sim::ctrl::ControllerStats& cs = cp.controllers[i];
      const std::string p = "ctrl.c" + std::to_string(i) + ".";
      metrics_.gauge(p + "admitted").set(static_cast<double>(cs.admitted));
      metrics_.gauge(p + "decisions").set(static_cast<double>(cs.decisions));
      metrics_.gauge(p + "conflicts").set(static_cast<double>(cs.conflicts));
      metrics_.gauge(p + "steals_in").set(static_cast<double>(cs.steals_in));
      metrics_.gauge(p + "steals_out").set(static_cast<double>(cs.steals_out));
      metrics_.gauge(p + "peak_queue_depth")
          .set(static_cast<double>(cs.peak_queue_depth));
      metrics_.gauge(p + "staleness_mean").set(cs.mean_staleness());
      metrics_.gauge(p + "staleness_max").set(cs.staleness_max);
    }
  }

  const std::pair<const char*, const util::StepSeries*> cluster_series[] = {
      {"cluster.cpu_used", &metrics.cpu_used},
      {"cluster.mem_used", &metrics.mem_used},
      {"cluster.cpu_allocated", &metrics.cpu_allocated},
      {"cluster.mem_allocated", &metrics.mem_allocated},
  };
  for (const auto& [name, series] : cluster_series) {
    auto& out = metrics_.series(name);
    for (const auto& [t, v] : series->sampled(kSeriesImportCap))
      out.sample(t, v);
  }
  // The NDJSON stream is complete once the run is finished — make it visible
  // to readers before the session is destroyed.
  if (ndjson_out_) ndjson_out_->flush();
}

bool ObsSession::export_chrome_trace(const std::string& path,
                                     std::string* error) const {
  return write_chrome_trace(trace_, path, error);
}

bool ObsSession::export_csv(const std::string& path,
                            std::string* error) const {
  return write_csv_timeseries(metrics_, path, error);
}

void ObsSession::write_summary(std::ostream& os) const {
  obs::write_summary(os, trace_, metrics_);
}

}  // namespace libra::obs
