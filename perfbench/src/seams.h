// Timing decorators for the simulator's public seams. The traced pass wraps
// the policy (every sim::Policy hook), the trace source, the record sink, the
// engine audit hook and the pool-event listener, and records one span per
// call into a SpanRecorder. Spans nest: a pool audit that fires inside
// plan_allocation is charged to analysis.audit and subtracted from
// core.pool.plan's self time. Wall time outside every span is the engine's
// own (src/sim) time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "core/pool_event.h"
#include "core/pool_status.h"
#include "gen/trace_source.h"
#include "sim/audit_hook.h"
#include "sim/metrics.h"
#include "sim/policy.h"

namespace perfbench {

namespace sim = libra::sim;
namespace core = libra::core;
namespace gen = libra::gen;
namespace analysis = libra::analysis;

/// One timed layer per seam (or group of hooks of one module).
enum Layer : int {
  kPredict,     // predict / speculate_predict / commit_predict
  kSelect,      // select_node / speculate_select / commit_select
  kPlan,        // plan_allocation
  kComplete,    // on_complete
  kSafeguard,   // wants_monitor / on_monitor
  kPing,        // on_health_ping
  kFault,       // on_node_down / on_node_up / on_evicted / on_oom / on_drain_notice
  kFinalize,    // on_finalized
  kPoolStatus,  // PoolStatusProvider::pool_status (control-plane gossip reads)
  kAudit,       // EngineAuditHook + PoolEventListener into the auditor
  kSource,      // TraceSource::peek_arrival / next
  kSink,        // InvocationRecordSink::on_record
  kLayerCount
};

struct LayerTotals {
  int64_t self_ns = 0;   // span time minus nested child spans
  int64_t calls = 0;
};

/// Counts taken at the seams, next to the spans, so ratios are measured
/// where the work happens.
struct SeamCounts {
  int64_t decisions = 0;      // select_node + commit_select calls
  int64_t placements = 0;     // plan_allocation calls
  int64_t monitor_ticks = 0;  // on_monitor calls
};

/// Aggregating span recorder: keeps a stack of open spans and folds each
/// closed span into its layer's self time. Single-threaded by design (the
/// benchmark runs sched_workers = 1).
class SpanRecorder {
 public:
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void enter(Layer layer) { stack_.push_back({layer, now_ns(), 0}); }
  void exit() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const int64_t dur = now_ns() - f.start;
    LayerTotals& t = totals_[f.layer];
    t.self_ns += dur - f.child_ns;
    ++t.calls;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  const std::array<LayerTotals, kLayerCount>& totals() const { return totals_; }
  SeamCounts& counts() { return counts_; }
  const SeamCounts& counts() const { return counts_; }
  bool idle() const { return stack_.empty(); }

 private:
  struct Frame {
    Layer layer;
    int64_t start;
    int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<LayerTotals, kLayerCount> totals_{};
  SeamCounts counts_;
};

/// RAII span.
class Span {
 public:
  Span(SpanRecorder* rec, Layer layer) : rec_(rec) { rec_->enter(layer); }
  ~Span() { rec_->exit(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Wraps a policy so every hook is timed. Use make_timed_policy(): it returns
/// a wrapper that also forwards core::PoolStatusProvider exactly when the
/// inner policy implements it, because the control plane discovers its gossip
/// source through a dynamic_cast on the engine's policy.
std::shared_ptr<sim::Policy> make_timed_policy(std::shared_ptr<sim::Policy> inner,
                                               SpanRecorder* rec);

class TimedSource final : public gen::TraceSource {
 public:
  TimedSource(gen::TraceSource& inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  std::optional<sim::SimTime> peek_arrival() override;
  sim::Invocation next() override;
  sim::SimTime horizon() const override { return inner_.horizon(); }
  size_t size_hint() const override { return inner_.size_hint(); }

 private:
  gen::TraceSource& inner_;
  SpanRecorder* rec_;
};

class TimedSink final : public sim::InvocationRecordSink {
 public:
  TimedSink(sim::InvocationRecordSink& inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  void on_record(const sim::InvocationRecord& rec) override;

 private:
  sim::InvocationRecordSink& inner_;
  SpanRecorder* rec_;
};

/// Times both auditor seams: engine events and pool mutations.
class TimedAuditor final : public sim::EngineAuditHook,
                           public core::PoolEventListener {
 public:
  TimedAuditor(analysis::InvariantAuditor& inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}
  void on_engine_event(sim::EngineApi& api, const sim::EngineEvent& ev) override;
  void on_pool_event(const core::PoolEvent& ev) override;

 private:
  analysis::InvariantAuditor& inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench
