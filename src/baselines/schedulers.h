// Baseline node-selection strategies compared against Libra's coverage
// scheduler in §8.4: OpenWhisk's sticky hash, Round Robin, Join-the-
// Shortest-Queue, and Min-Worker-Set (least resource pressure).
#pragma once

#include "core/scheduler.h"

namespace libra::baselines {

/// Default OpenWhisk scheduling: a hash keyed by the function pins its
/// invocations to one node (container reuse); the hash advances when the
/// target runs out of capacity.
class HashScheduler final : public core::SchedulerStrategy {
 public:
  std::string name() const override { return "hash"; }
  sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) override {
    return hash_.pick(inv, api);
  }

 private:
  core::StickyHashState hash_;
};

/// Classic Round Robin across feasible nodes.
class RoundRobinScheduler final : public core::SchedulerStrategy {
 public:
  std::string name() const override { return "rr"; }
  sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) override;
  /// Where the next scan starts (one past the last pick).
  size_t cursor() const { return cursor_; }

 private:
  size_t cursor_ = 0;
};

/// Join-the-Shortest-Queue: the feasible node with the fewest running
/// invocations.
class JsqScheduler final : public core::SchedulerStrategy {
 public:
  std::string name() const override { return "jsq"; }
  sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) override;
};

/// Min-Worker-Set (Zhang et al., SOSP'21) as characterized in §8.4: the
/// feasible node with the least resource pressure (max of CPU/mem
/// reservation fractions).
class MwsScheduler final : public core::SchedulerStrategy {
 public:
  std::string name() const override { return "mws"; }
  sim::NodeId select(sim::Invocation& inv, sim::EngineApi& api) override;
};

}  // namespace libra::baselines
