// Golden-replay guard for the Cluster / Lifecycle / Controller decomposition:
// proves that the barrier-batched, speculate-then-commit sharded controller
// produces BIT-IDENTICAL RunMetrics to the pre-refactor monolithic engine,
// with 1 worker and with 4 workers, across baselines, Libra and Libra+Trust
// platforms and the order-dependent baseline schedulers.
//
// The pinned constants (tests/golden_cases.h) were captured from the
// monolithic engine (commit 54422fc, before the decomposition) with
// tools/golden_capture.cpp at the default RelWithDebInfo build; the capture
// was repeated at -O3 with the same result, so they are stable across
// optimization levels on this toolchain.
// If a deliberate semantic change moves them, re-run the capture tool and
// update the table — never update it to paper over an unexplained diff.
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

#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

#include "golden_cases.h"

namespace libra {
namespace {

using golden::GoldenCase;

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

// Builds the scenario fresh on every call: policies are stateful, so each
// (scenario, worker-count, controller-count) run needs its own instance.
uint64_t run_scenario(const std::string& name, int sched_workers,
                      int controllers = 1) {
  auto cat = catalog();
  sim::EngineConfig cfg;
  std::shared_ptr<sim::Policy> policy;
  std::vector<sim::Invocation> trace;
  if (name == "default" || name == "freyr" || name == "libra" ||
      name == "libra_trust") {
    cfg = exp::jetstream_config(8, 4);
    trace = workload::multi_trace(*cat, 120, 5);
    const exp::PlatformKind kind =
        name == "default"  ? exp::PlatformKind::kDefault
        : name == "freyr"  ? exp::PlatformKind::kFreyr
        : name == "libra"  ? exp::PlatformKind::kLibra
                           : exp::PlatformKind::kLibraTrust;
    policy = exp::make_platform(kind, cat);
  } else {
    cfg = exp::multi_node_config(4);
    trace = workload::multi_trace(*cat, 120, 7);
    const exp::SchedulerKind kind =
        name == "sched_rr"    ? exp::SchedulerKind::kRoundRobin
        : name == "sched_jsq" ? exp::SchedulerKind::kJsq
                              : exp::SchedulerKind::kMws;
    policy = exp::make_scheduler_platform(kind, cat);
  }
  cfg.sched_workers = sched_workers;
  cfg.control.num_controllers = controllers;
  const auto metrics = exp::run_experiment(cfg, policy, std::move(trace));
  return exp::run_metrics_digest(metrics);
}

class GoldenReplay : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReplay, OneWorkerMatchesPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name, 1)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine "
      << "with sched_workers=1";
}

TEST_P(GoldenReplay, FourWorkersMatchPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name, 4)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine "
      << "with sched_workers=4 — the parallel speculate/commit merge must be "
      << "order-independent";
}

// Multi-controller digest identity (DESIGN.md §5k): with pass-through gossip
// and full fan-out, every controller's pool-view cache equals the policy's
// own piggybacked snapshot at all times, so sharding the catalog across four
// front ends — with work stealing enabled — must still reproduce the
// pre-refactor digests bit-for-bit, serial and parallel.
TEST_P(GoldenReplay, FourControllersOneWorkerMatchPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name, 1, /*controllers=*/4)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine "
      << "with 4 controllers — catalog sharding, gossip caches or work "
      << "stealing leaked into engine behaviour";
}

TEST_P(GoldenReplay, FourControllersFourWorkersMatchPreRefactorEngine) {
  const auto& c = GetParam();
  EXPECT_EQ(exp::digest_hex(run_scenario(c.name, 4, /*controllers=*/4)),
            exp::digest_hex(c.digest))
      << "scenario " << c.name << " diverged from the pre-refactor engine "
      << "with 4 controllers and 4 sched workers";
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, GoldenReplay,
                         ::testing::ValuesIn(golden::kGoldenCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// The digest itself must be stable across identical runs (no iteration-order
// or address-dependent leakage into the hash).
TEST(GoldenReplayDigest, DeterministicAcrossIdenticalRuns) {
  EXPECT_EQ(run_scenario("libra", 1), run_scenario("libra", 1));
}

}  // namespace
}  // namespace libra
