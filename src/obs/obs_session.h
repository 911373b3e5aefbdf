// ObsSession — the run-scoped entry point of the observability subsystem.
// One session observes one Engine::run through the three existing seams:
//
//   sim::EngineAuditHook       invocation lifecycle spans (queued -> startup
//                              -> running), park/oom/fault instants, cluster
//                              gauges sampled on health pings
//   core::PoolEventListener    pool transaction instants, per-op counters,
//                              grant-lifetime histogram, pool-depth counter
//                              tracks and time series
//   core::PolicyEventListener  safeguard triggers and trust transitions
//
// The session is strictly read-only with respect to the simulation: it never
// mutates engine, policy or pool state and consumes no randomness, so a run
// is bit-identical with observability on or absent (asserted by
// tests/test_obs.cpp). Each seam forwards to an optional chained inner
// listener (the invariant auditor), so auditing and observability stack.
//
// Not thread-safe: attach it to the single-threaded discrete-event engine,
// not to pools shared across threads.
#pragma once

#include <fstream>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy_event.h"
#include "core/pool_event.h"
#include "obs/metrics_registry.h"
#include "obs/obs_config.h"
#include "obs/trace_recorder.h"
#include "sim/audit_hook.h"

namespace libra::sim {
struct RunMetrics;
}

namespace libra::obs {

class ObsSession final : public sim::EngineAuditHook,
                         public core::PoolEventListener,
                         public core::PolicyEventListener {
 public:
  explicit ObsSession(ObsConfig cfg = {});

  const ObsConfig& config() const { return cfg_; }

  /// Chains the invariant auditor (or any other hook/listener) behind this
  /// session; it keeps observing every event.
  void chain_engine_hook(sim::EngineAuditHook* inner) { inner_hook_ = inner; }
  void chain_pool_listener(core::PoolEventListener* inner) {
    inner_pool_ = inner;
  }

  // ---- Seam implementations ----
  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override;
  void on_pool_event(const core::PoolEvent& ev) override;
  void on_policy_event(const core::PolicyEvent& ev) override;

  /// Closes still-open lifecycle spans, records run-level gauges and imports
  /// the cluster utilization series from the finished run. Call once after
  /// Engine::run returns.
  void finish(const sim::RunMetrics& metrics);

  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // ---- Export conveniences (see obs/exporters.h) ----
  bool export_chrome_trace(const std::string& path,
                           std::string* error = nullptr) const;
  bool export_csv(const std::string& path, std::string* error = nullptr) const;
  void write_summary(std::ostream& os) const;

 private:
  struct SpanState {
    bool open = false;
    const char* name = "";        // string literal, stable
    sim::NodeId node = sim::kNoNode;
  };

  void ensure_metadata(sim::EngineApi& api);
  /// Lazily resolves the per-shard decision-cost histogram — the shard count
  /// is a run-time EngineConfig knob the session cannot know at construction.
  LogHistogram& shard_decision_hist(int shard);
  void open_span(double ts, long long inv, const char* name,
                 std::string args = {}, sim::NodeId node = sim::kNoNode);
  void close_span(double ts, long long inv);
  /// Closes every open span of an invocation placed on `node` (node death:
  /// the engine reaps victims without per-invocation events).
  void close_spans_on_node(double ts, sim::NodeId node);

  ObsConfig cfg_;
  sim::EngineAuditHook* inner_hook_ = nullptr;
  core::PoolEventListener* inner_pool_ = nullptr;

  TraceRecorder trace_;
  MetricsRegistry metrics_;

  std::unordered_map<long long, SpanState> span_state_;
  /// First-put time per (pool, source): measures harvest-entry lifetime
  /// (put -> preemptive release).
  std::map<std::pair<const void*, long long>, double> put_time_;
  long pool_seq_ = 0;
  long ping_seq_ = 0;
  double last_ts_ = 0.0;
  bool metadata_done_ = false;

  // Hot-path metric handles, resolved once at construction.
  Counter* c_arrivals_ = nullptr;
  Counter* c_placements_ = nullptr;
  Counter* c_completions_ = nullptr;
  Counter* c_parks_ = nullptr;
  Counter* c_ooms_ = nullptr;
  Counter* c_node_down_ = nullptr;
  Counter* c_node_up_ = nullptr;
  Counter* c_pool_put_ = nullptr;
  Counter* c_pool_get_ = nullptr;
  Counter* c_pool_preempt_source_ = nullptr;
  Counter* c_pool_reharvest_ = nullptr;
  Counter* c_pool_preempt_all_ = nullptr;
  Counter* c_safeguards_ = nullptr;
  Counter* c_trust_demotions_ = nullptr;
  Counter* c_trust_promotions_ = nullptr;
  LogHistogram* h_queue_wait_ = nullptr;
  LogHistogram* h_latency_ = nullptr;
  LogHistogram* h_grant_lifetime_ = nullptr;
  /// Per-shard decision-cost histograms (§6.4 sharded controller), resolved
  /// on first placement from each shard.
  std::map<int, LogHistogram*> h_shard_cost_;
  /// Owned NDJSON stream when cfg_.ndjson_path is set; the recorder holds a
  /// raw pointer into it, so it lives as long as the session.
  std::unique_ptr<std::ofstream> ndjson_out_;
};

}  // namespace libra::obs
