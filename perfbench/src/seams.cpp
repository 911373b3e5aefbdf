#include "seams.h"

namespace perfbench {

namespace {

class TimedPolicy : public sim::Policy {
 public:
  TimedPolicy(std::shared_ptr<sim::Policy> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::string name() const override { return inner_->name(); }
  sim::PolicyStats stats() const override { return inner_->stats(); }

  void predict(sim::Invocation& inv) override {
    Span s(rec_, kPredict);
    inner_->predict(inv);
  }
  std::optional<sim::PredictionMemo> speculate_predict(
      const sim::Invocation& inv) const override {
    Span s(rec_, kPredict);
    return inner_->speculate_predict(inv);
  }
  void commit_predict(sim::Invocation& inv,
                      const sim::PredictionMemo& memo) override {
    Span s(rec_, kPredict);
    inner_->commit_predict(inv, memo);
  }

  sim::NodeId select_node(sim::Invocation& inv, sim::EngineApi& api) override {
    Span s(rec_, kSelect);
    ++rec_->counts().decisions;
    return inner_->select_node(inv, api);
  }
  std::optional<sim::NodeId> speculate_select(
      const sim::Invocation& inv, const sim::EngineApi& api) const override {
    Span s(rec_, kSelect);
    return inner_->speculate_select(inv, api);
  }
  void commit_select(sim::Invocation& inv, sim::EngineApi& api) override {
    Span s(rec_, kSelect);
    ++rec_->counts().decisions;
    inner_->commit_select(inv, api);
  }

  sim::AllocationPlan plan_allocation(sim::Invocation& inv,
                                      sim::EngineApi& api) override {
    Span s(rec_, kPlan);
    ++rec_->counts().placements;
    return inner_->plan_allocation(inv, api);
  }
  void on_complete(sim::Invocation& inv, sim::EngineApi& api) override {
    Span s(rec_, kComplete);
    inner_->on_complete(inv, api);
  }

  bool wants_monitor(const sim::Invocation& inv) const override {
    Span s(rec_, kSafeguard);
    return inner_->wants_monitor(inv);
  }
  void on_monitor(sim::Invocation& inv, sim::EngineApi& api) override {
    Span s(rec_, kSafeguard);
    ++rec_->counts().monitor_ticks;
    inner_->on_monitor(inv, api);
  }

  void on_health_ping(sim::NodeId node, sim::EngineApi& api) override {
    Span s(rec_, kPing);
    inner_->on_health_ping(node, api);
  }

  void on_oom(sim::Invocation& inv, sim::EngineApi& api) override {
    Span s(rec_, kFault);
    inner_->on_oom(inv, api);
  }
  void on_evicted(sim::Invocation& inv, sim::EngineApi& api) override {
    Span s(rec_, kFault);
    inner_->on_evicted(inv, api);
  }
  void on_node_down(sim::NodeId node, sim::EngineApi& api) override {
    Span s(rec_, kFault);
    inner_->on_node_down(node, api);
  }
  void on_node_up(sim::NodeId node, sim::EngineApi& api) override {
    Span s(rec_, kFault);
    inner_->on_node_up(node, api);
  }
  void on_drain_notice(sim::NodeId node, sim::SimTime deadline,
                       sim::EngineApi& api) override {
    Span s(rec_, kFault);
    inner_->on_drain_notice(node, deadline, api);
  }

  void on_finalized(const sim::Invocation& inv) override {
    Span s(rec_, kFinalize);
    inner_->on_finalized(inv);
  }

 protected:
  std::shared_ptr<sim::Policy> inner_;
  SpanRecorder* rec_;
};

class TimedProviderPolicy final : public TimedPolicy,
                                  public core::PoolStatusProvider {
 public:
  TimedProviderPolicy(std::shared_ptr<sim::Policy> inner,
                      const core::PoolStatusProvider* provider,
                      SpanRecorder* rec)
      : TimedPolicy(std::move(inner), rec), provider_(provider) {}

  const core::PoolStatus& pool_status(sim::NodeId node) const override {
    Span s(rec_, kPoolStatus);
    return provider_->pool_status(node);
  }

 private:
  const core::PoolStatusProvider* provider_;
};

}  // namespace

std::shared_ptr<sim::Policy> make_timed_policy(std::shared_ptr<sim::Policy> inner,
                                               SpanRecorder* rec) {
  if (const auto* provider =
          dynamic_cast<const core::PoolStatusProvider*>(inner.get()))
    return std::make_shared<TimedProviderPolicy>(std::move(inner), provider, rec);
  return std::make_shared<TimedPolicy>(std::move(inner), rec);
}

std::optional<sim::SimTime> TimedSource::peek_arrival() {
  Span s(rec_, kSource);
  return inner_.peek_arrival();
}

sim::Invocation TimedSource::next() {
  Span s(rec_, kSource);
  return inner_.next();
}

void TimedSink::on_record(const sim::InvocationRecord& rec) {
  Span s(rec_, kSink);
  inner_.on_record(rec);
}

void TimedAuditor::on_engine_event(sim::EngineApi& api,
                                   const sim::EngineEvent& ev) {
  Span s(rec_, kAudit);
  inner_.on_engine_event(api, ev);
}

void TimedAuditor::on_pool_event(const core::PoolEvent& ev) {
  Span s(rec_, kAudit);
  inner_.on_pool_event(ev);
}

}  // namespace perfbench
