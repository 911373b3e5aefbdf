// Golden-replay guard for the Cluster / Lifecycle / Controller decomposition:
// proves that the barrier-batched, speculate-then-commit sharded controller
// produces BIT-IDENTICAL RunMetrics to the pre-refactor monolithic engine,
// with 1 worker and with 4 workers, across baselines, Libra and Libra+Trust
// platforms and the order-dependent baseline schedulers.
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

#include <string>
#include <utility>

#include "exp/digest.h"
#include "exp/runner.h"

#include "golden_cases.h"
#include "golden_scenario.h"

namespace libra {
namespace {

using golden::GoldenCase;

// Builds the scenario fresh on every call: policies are stateful, so each
// (scenario, worker-count, controller-count) run needs its own instance.
uint64_t run_scenario(const std::string& name, int sched_workers,
                      int controllers = 1) {
  auto s = golden::build_scenario(name);
  s.cfg.sched_workers = sched_workers;
  s.cfg.control.num_controllers = controllers;
  const auto metrics = exp::run_experiment(s.cfg, s.policy, std::move(s.trace));
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
