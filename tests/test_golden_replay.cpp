// Golden-replay guard for the Cluster / Lifecycle / Controller decomposition:
// proves that the barrier-batched sharded controller produces BIT-IDENTICAL
// RunMetrics to the pre-refactor monolithic engine, with 1 and with 4
// front-end controllers, across baselines, Libra and Libra+Trust platforms
// and the order-dependent baseline schedulers.
//
// The pinned constants (tests/golden_cases.h) were captured from the
// monolithic engine (commit 54422fc, before the decomposition) at the
// default RelWithDebInfo build; the capture was repeated at -O3 with the
// same result, so they are stable across optimization levels on this
// toolchain.
// To re-capture after a deliberate semantic change, run these tests: each
// failure prints the actual digest next to the pinned one, and the actual
// value is the new constant. Update the table only for a diff you can
// explain — never to paper over an unexplained one.
//
// Re-captured (libra, libra_trust, sched_jsq, sched_mws only) after the
// libra-lint unordered-iteration fixes: end-of-run finalization of unfinished
// invocations and the pool idle-integral accumulation now run in sorted key
// order instead of unordered_map bucket order, so record order and FP
// summation order no longer depend on the standard library's hash layout.
// default/freyr/sched_rr were bit-identical before and after, confirming the
// diff is exactly the ordering fix.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "exp/digest.h"
#include "exp/runner.h"
#include "sim/policy.h"

#include "golden_cases.h"
#include "golden_scenario.h"

namespace libra {
namespace {

using golden::GoldenCase;

// Builds the scenario fresh on every call: policies are stateful, so each
// (scenario, controller-count) run needs its own instance.
uint64_t run_scenario(const std::string& name, int controllers = 1) {
  auto s = golden::build_scenario(name);
  s.cfg.control.num_controllers = controllers;
  const auto metrics = exp::run_experiment(s.cfg, s.policy, std::move(s.trace));
  return exp::run_metrics_digest(metrics);
}

class GoldenReplay : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReplay, OneWorkerMatchesPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine";
}

// Multi-controller digest identity (DESIGN.md §5k): with pass-through gossip
// and full fan-out, every controller's pool-view cache equals the policy's
// own piggybacked snapshot at all times, so sharding the catalog across four
// front ends — with work stealing enabled — must still reproduce the
// pre-refactor digests bit-for-bit.
TEST_P(GoldenReplay, FourControllersOneWorkerMatchPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name, /*controllers=*/4)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine "
      << "with 4 controllers — catalog sharding, gossip caches or work "
      << "stealing leaked into engine behaviour";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, GoldenReplay,
                         ::testing::ValuesIn(golden::kGoldenCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The digest itself must be stable across identical runs (no iteration-order
// or address-dependent leakage into the hash).
TEST(GoldenReplayDigest, DeterministicAcrossIdenticalRuns) {
  EXPECT_EQ(run_scenario("libra"), run_scenario("libra"));
}

/// Forwards every Policy hook to the wrapped policy and counts the calls
/// to the four hooks sim::Policy keeps only as inert pins.
class PinnedHookCounter final : public sim::Policy {
 public:
  explicit PinnedHookCounter(std::shared_ptr<sim::Policy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  sim::PolicyStats stats() const override { return inner_->stats(); }
  void predict(sim::Invocation& inv) override { inner_->predict(inv); }
  std::optional<sim::PredictionMemo> speculate_predict(
      const sim::Invocation& inv) const override {
    ++calls_;
    return inner_->speculate_predict(inv);
  }
  void commit_predict(sim::Invocation& inv,
                      const sim::PredictionMemo& memo) override {
    ++calls_;
    inner_->commit_predict(inv, memo);
  }
  sim::NodeId select_node(sim::Invocation& inv, sim::EngineApi& api) override {
    return inner_->select_node(inv, api);
  }
  std::optional<sim::NodeId> speculate_select(
      const sim::Invocation& inv, const sim::EngineApi& api) const override {
    ++calls_;
    return inner_->speculate_select(inv, api);
  }
  void commit_select(sim::Invocation& inv, sim::EngineApi& api) override {
    ++calls_;
    inner_->commit_select(inv, api);
  }
  sim::AllocationPlan plan_allocation(sim::Invocation& inv,
                                      sim::EngineApi& api) override {
    return inner_->plan_allocation(inv, api);
  }
  bool wants_monitor(const sim::Invocation& inv) const override {
    return inner_->wants_monitor(inv);
  }
  void on_monitor(sim::Invocation& inv, sim::EngineApi& api) override {
    inner_->on_monitor(inv, api);
  }
  void on_complete(sim::Invocation& inv, sim::EngineApi& api) override {
    inner_->on_complete(inv, api);
  }
  void on_oom(sim::Invocation& inv, sim::EngineApi& api) override {
    inner_->on_oom(inv, api);
  }
  void on_evicted(sim::Invocation& inv, sim::EngineApi& api) override {
    inner_->on_evicted(inv, api);
  }
  void on_health_ping(sim::NodeId node, sim::EngineApi& api) override {
    inner_->on_health_ping(node, api);
  }
  void on_node_down(sim::NodeId node, sim::EngineApi& api) override {
    inner_->on_node_down(node, api);
  }
  void on_node_up(sim::NodeId node, sim::EngineApi& api) override {
    inner_->on_node_up(node, api);
  }
  void on_drain_notice(sim::NodeId node, sim::SimTime deadline,
                       sim::EngineApi& api) override {
    inner_->on_drain_notice(node, deadline, api);
  }
  void on_finalized(const sim::Invocation& inv) override {
    inner_->on_finalized(inv);
  }

  long calls() const { return calls_; }

 private:
  std::shared_ptr<sim::Policy> inner_;
  mutable long calls_ = 0;
};

// Every decision is a select_node and every prediction a predict: no golden
// scenario reaches a pinned hook, and each lands on its pinned digest
// through the counting wrapper.
TEST(SerialDecisionPath, GoldenScenariosCallNoPinnedHookAndKeepTheirDigests) {
  for (const auto& e : golden::kGoldenEntries) {
    const std::string name(e.name);
    auto s = golden::build_scenario(name);
    auto counter = std::make_shared<PinnedHookCounter>(s.policy);
    const auto metrics =
        exp::run_experiment(s.cfg, counter, std::move(s.trace));
    EXPECT_EQ(counter->calls(), 0) << name;
    EXPECT_EQ(exp::digest_hex(exp::run_metrics_digest(metrics)),
              exp::digest_hex(e.digest))
        << name;
  }
}

}  // namespace
}  // namespace libra
