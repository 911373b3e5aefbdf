#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "baselines/freyr.h"
#include "baselines/schedulers.h"
#include "core/libra_policy.h"
#include "core/predictor.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

using sim::Resources;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

// ---------------- exp/report ----------------

exp::NamedRun tiny_run(const std::string& name) {
  auto trace = workload::burst_trace(*catalog(), 10, 3);
  auto policy = exp::make_platform(exp::PlatformKind::kDefault, catalog());
  return {name, exp::run_experiment(exp::single_node_config(), policy,
                                    std::move(trace))};
}

TEST(Report, CdfTableHasRowPerQuantile) {
  std::vector<exp::NamedRun> runs;
  runs.push_back(tiny_run("a"));
  auto table = exp::cdf_table("t", runs, &sim::RunMetrics::response_latencies,
                              {50, 99});
  EXPECT_EQ(table.rows(), 2u);
}

TEST(Report, SummaryAndOutcomeTablesRender) {
  std::vector<exp::NamedRun> runs;
  runs.push_back(tiny_run("a"));
  runs.push_back(tiny_run("b"));
  EXPECT_EQ(exp::summary_table("s", runs).rows(), 2u);
  EXPECT_EQ(exp::outcome_table("o", runs).rows(), 2u);
  const auto timeline =
      exp::utilization_timeline_table("u", runs[0].metrics, 6);
  EXPECT_GT(timeline.rows(), 0u);
  EXPECT_LE(timeline.rows(), 6u);
}

TEST(Report, DefaultQuantilesAreSorted) {
  const auto& q = exp::default_quantiles();
  for (size_t i = 1; i < q.size(); ++i) EXPECT_LT(q[i - 1], q[i]);
}

TEST(Report, QuantileEvaluatorExactPathMatchesUtilPercentile) {
  std::vector<double> xs;
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.uniform(-2.0, 40.0));
  const exp::QuantileEvaluator eval(xs);
  EXPECT_FALSE(eval.sketched());
  EXPECT_EQ(eval.count(), xs.size());
  for (double q : exp::default_quantiles())
    EXPECT_DOUBLE_EQ(eval.quantile(q), util::percentile(xs, q)) << q;
  EXPECT_DOUBLE_EQ(eval.quantile(0.0), util::percentile(xs, 0.0));
}

TEST(Report, QuantileEvaluatorSketchesAHistogram) {
  std::vector<double> xs;
  util::Rng rng(11);
  obs::LogHistogram hist(obs::LogHistogram::Options{/*min_positive=*/1e-6});
  for (int i = 0; i < 4096; ++i) {
    xs.push_back(rng.uniform(0.01, 30.0));
    hist.record(xs.back());
  }
  const exp::QuantileEvaluator eval(hist);
  EXPECT_TRUE(eval.sketched());
  EXPECT_EQ(eval.count(), xs.size());
  // Sketch answers are log-bucket approximations: within one growth factor
  // (2x) of the exact value for positive samples.
  for (double q : {50.0, 95.0, 99.0}) {
    const double exact = util::percentile(xs, q);
    const double approx = eval.quantile(q);
    EXPECT_GE(approx, exact / 2.0) << q;
    EXPECT_LE(approx, exact * 2.0) << q;
  }
  EXPECT_THROW(exp::QuantileEvaluator(std::vector<double>{}).quantile(50.0),
               std::invalid_argument);
}

// ---------------- OOM path ----------------

/// Predictor that deliberately under-predicts memory for every invocation,
/// driving allocations below the function's OOM floor.
class MaliciousPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "malicious"; }
  void predict(sim::Invocation& inv) override {
    inv.pred_demand = {inv.user_alloc.cpu, 1.0};  // ~zero memory
    inv.pred_duration = 1.0;
    inv.pred_size_related = true;
  }
  void observe(const core::Observation&) override {}
};

TEST(OomPath, UnderpredictedMemoryWithoutSafeguardTriggersOomRestart) {
  core::LibraPolicyConfig cfg;
  cfg.safeguard_enabled = false;  // nothing rescues the container
  cfg.min_mem_floor = 8.0;        // allow harvesting below the OOM floor
  auto policy = std::make_shared<core::LibraPolicy>(
      cfg, std::make_shared<MaliciousPredictor>(),
      std::make_shared<baselines::HashScheduler>());
  auto trace = workload::burst_trace(*catalog(), 6, 11);
  auto m = exp::run_experiment(exp::single_node_config(), policy,
                               std::move(trace));
  EXPECT_GT(m.oom_events, 0);
  EXPECT_EQ(m.incomplete, 0);  // restarts recover every invocation
  for (const auto& rec : m.invocations) {
    EXPECT_TRUE(rec.completed);
    if (rec.oom_count > 0) {
      // The restart penalty + lost progress must show up as a slowdown.
      EXPECT_LT(rec.speedup, 0.0);
    }
  }
}

/// Predicts a memory demand above every function's hard floor but far
/// below DV's real working set, so the container survives long enough for
/// the monitor to observe the climbing usage.
class UnderpredictingPredictor final : public core::DemandPredictor {
 public:
  std::string name() const override { return "underpredictor"; }
  void predict(sim::Invocation& inv) override {
    inv.pred_demand = {inv.user_alloc.cpu, 300.0};
    inv.pred_duration = 5.0;
    inv.pred_size_related = true;
  }
  void observe(const core::Observation&) override {}
};

TEST(OomPath, SafeguardRescuesUnderpredictedMemoryBeforeHarm) {
  core::LibraPolicyConfig cfg;
  cfg.safeguard_enabled = true;
  cfg.safeguard_threshold = 0.5;
  auto policy = std::make_shared<core::LibraPolicy>(
      cfg, std::make_shared<UnderpredictingPredictor>(),
      std::make_shared<baselines::HashScheduler>());
  // DV invocations: real memory demand ~1.5-2.8 GB, predicted 300 MB.
  util::Rng rng(13);
  std::vector<sim::Invocation> trace;
  for (int i = 0; i < 6; ++i)
    trace.push_back(workload::make_invocation(
        *catalog(), i, /*DV*/ 3, catalog()->at(3).sample_input(rng),
        static_cast<double>(i)));
  auto m = exp::run_experiment(exp::single_node_config(), policy,
                               std::move(trace));
  // The monitor sees the memory ramp crossing the threshold and returns the
  // harvested memory: no OOM, every invocation safeguarded, none incomplete.
  EXPECT_GT(m.policy.safeguard_triggers, 0);
  EXPECT_EQ(m.oom_events, 0);
  EXPECT_EQ(m.incomplete, 0);
  double worst = 0;
  for (const auto& rec : m.invocations) worst = std::min(worst, rec.speedup);
  EXPECT_GT(worst, -0.25);  // rescue bounds the damage
}

// ---------------- Freyr-specific semantics ----------------

TEST(FreyrSemantics, SafeguardOnlyFixesTheNextInvocation) {
  // Same function invoked twice in sequence; the first triggers the
  // safeguard. Under Freyr semantics the first keeps suffering, and the
  // second is served with its user-defined allocation (pred == user).
  core::LibraPolicyConfig cfg = baselines::freyr_config();
  auto predictor = std::make_shared<MaliciousPredictor>();
  auto policy = std::make_shared<core::LibraPolicy>(
      cfg, predictor, std::make_shared<baselines::HashScheduler>());

  util::Rng rng(5);
  std::vector<sim::Invocation> trace;
  trace.push_back(workload::make_invocation(
      *catalog(), 0, 0, catalog()->at(0).sample_input(rng), 0.0));
  trace.push_back(workload::make_invocation(
      *catalog(), 1, 0, catalog()->at(0).sample_input(rng), 30.0));
  auto m = exp::run_experiment(exp::single_node_config(), policy,
                               std::move(trace));
  ASSERT_EQ(m.invocations.size(), 2u);
  // First invocation was mem-harvested and safeguarded (flag only).
  EXPECT_GT(m.policy.safeguard_triggers, 0);
  // Second invocation ran un-harvested: prediction reset to user alloc.
  const auto& second =
      m.invocations[0].id == 1 ? m.invocations[0] : m.invocations[1];
  EXPECT_EQ(second.pred_demand.cpu, second.user_alloc.cpu);
  EXPECT_EQ(second.pred_demand.mem, second.user_alloc.mem);
}

TEST(FreyrSemantics, NegativeFunctionIdThrows) {
  // The safeguard's per-function tables are indexed by function id.
  auto policy = std::make_shared<core::LibraPolicy>(
      baselines::freyr_config(), std::make_shared<MaliciousPredictor>(),
      std::make_shared<baselines::HashScheduler>());
  sim::Invocation inv;
  inv.func = -1;
  inv.user_alloc = {1.0, 512.0};
  EXPECT_THROW(policy->predict(inv), std::out_of_range);
}

// ---------------- Event-queue stress property ----------------

class QueueStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueueStress, RandomScheduleCancelPreservesOrder) {
  util::Rng rng(GetParam());
  sim::EventQueue q;
  std::vector<double> fired;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.uniform(0, 100);
    ids.push_back(q.schedule(t, [&fired, t] { fired.push_back(t); }));
  }
  // Cancel a random third.
  size_t cancelled = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (rng.bernoulli(0.33)) {
      q.cancel(ids[i]);
      ++cancelled;
    }
  }
  q.run();
  EXPECT_EQ(fired.size(), ids.size() - cancelled);
  for (size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1], fired[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueStress,
                         ::testing::Values(11u, 22u, 33u));

// ---------------- Cross-platform determinism ----------------

TEST(Determinism, SameSeedSameResults) {
  auto run_once = [] {
    auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog());
    return exp::run_experiment(exp::single_node_config(), policy,
                               workload::single_node_trace(*catalog(), 21));
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.invocations.size(), b.invocations.size());
  for (size_t i = 0; i < a.invocations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.invocations[i].response_latency,
                     b.invocations[i].response_latency);
    EXPECT_DOUBLE_EQ(a.invocations[i].speedup, b.invocations[i].speedup);
  }
  EXPECT_EQ(a.policy.harvest_puts, b.policy.harvest_puts);
  EXPECT_EQ(a.policy.borrow_gets, b.policy.borrow_gets);
}

}  // namespace
}  // namespace libra
