// Adversarial scenario matrix — not a paper figure, but the robustness story
// behind the chaos subsystem (DESIGN.md §5j): how do the platforms hold up as
// the cluster gets progressively more hostile? Five matrix levels stack the
// scenario-matrix extensions one at a time:
//
//   baseline   4 homogeneous nodes, clean run
//   hetero     heterogeneous node classes (big / small / cpu- / mem-skewed)
//   spot       hetero + two spot reclamations with a 2 s drain notice
//   quota      spot + per-tenant harvest quotas (3 priority classes)
//   storm      quota + ping blackouts, sampled churn and a bias storm
//
// Every platform replays the identical trace and fault script per level, so
// differences are attributable to policy behaviour alone. Libra variants at
// the storm level run with the predictor wrapped in the scripted bias storm
// (exp::make_faulty_libra); the trust-breaker variant shows the resilience
// layer's value under it. Pass --smoke for a reduced CI sweep; --trace-out /
// --csv-out capture the Libra run at the storm level.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "exp/cli.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/obs_session.h"
#include "sim/fault/fault_plan.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;

namespace {

constexpr int kNumTenants = 3;

struct MatrixLevel {
  std::string name;
  bool hetero = false;
  bool spot = false;
  bool quotas = false;
  bool storm = false;
};

sim::EngineConfig level_config(const MatrixLevel& level, bool smoke) {
  sim::EngineConfig cfg;
  if (level.hetero) {
    cfg.node_capacities = {sim::Resources{32, 32768}, sim::Resources{12, 8192},
                           sim::Resources{24, 8192},
                           sim::Resources{16, 49152}};
  } else {
    cfg.node_capacities.assign(4, sim::Resources{32, 32768});
  }
  cfg.placement_timeout = 120.0;
  if (level.spot) {
    cfg.spot_drain_notice = 2.0;
    cfg.fault_plan.outages.push_back(
        {/*node=*/1, /*down_at=*/15.0, /*up_at=*/35.0, /*spot=*/true});
    cfg.fault_plan.outages.push_back(
        {/*node=*/2, /*down_at=*/smoke ? 25.0 : 40.0, sim::fault::kNever,
         /*spot=*/true});
  }
  if (level.storm) {
    cfg.fault_plan.ping_blackouts.push_back(
        {sim::fault::kAllNodes, 10.0, 20.0});
    cfg.fault_profile.seed = 0xbadca5e;
    cfg.fault_profile.node_mtbf = 90.0;
    cfg.fault_profile.node_mttr = 10.0;
    cfg.fault_profile.ping_drop_prob = 0.10;
    cfg.fault_profile.cold_start_fail_prob = 0.05;
  }
  return cfg;
}

/// The bias storm the Libra variants replay at the storm level: every
/// function's demand predicted at 2.5x for a 30 s window.
std::vector<sim::fault::PredictionFault> storm_faults() {
  sim::fault::PredictionFault f;
  f.kind = sim::fault::PredFaultKind::kBias;
  f.from = 5.0;
  f.until = 35.0;
  f.severity = 2.5;
  return {f};
}

void apply_tenant_quotas(core::LibraPolicy& policy) {
  // Tenant 0 is the batch class (tight cap), 1 the standard class, 2 the
  // latency-sensitive class left unrestricted.
  policy.set_tenant_quota(0, sim::Resources{4, 2048});
  policy.set_tenant_quota(1, sim::Resources{8, 4096});
}

std::shared_ptr<sim::Policy> build_platform(exp::PlatformKind kind,
                                            const MatrixLevel& level,
                                            auto catalog) {
  const bool libra_kind = kind != exp::PlatformKind::kDefault &&
                          kind != exp::PlatformKind::kFreyr;
  if (libra_kind && level.storm) {
    auto libra = exp::make_faulty_libra(
        catalog, exp::PlatformTuning{}, storm_faults(),
        /*with_trust=*/kind == exp::PlatformKind::kLibraTrust);
    if (level.quotas) apply_tenant_quotas(*libra);
    return libra;
  }
  auto policy = exp::make_platform(kind, catalog);
  if (level.quotas) {
    if (auto* libra = dynamic_cast<core::LibraPolicy*>(policy.get()))
      apply_tenant_quotas(*libra);
  }
  return policy;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_storm_matrix");
  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  auto trace =
      workload::multi_trace(*catalog, /*rpm=*/cli.smoke ? 60 : 150, /*seed=*/9);
  // Priority classes round-robin over the functions — every tenant exercises
  // every function so the quota clamp, not the mix, drives any difference.
  for (auto& inv : trace) inv.tenant = static_cast<int>(inv.func) % kNumTenants;

  std::vector<MatrixLevel> levels = {
      {"baseline"},
      {"hetero", true},
      {"spot", true, true},
      {"quota", true, true, true},
      {"storm", true, true, true, true},
  };
  if (cli.smoke)
    levels = {{"baseline"}, {"spot", true, true},
              {"storm", true, true, true, true}};
  const std::vector<exp::PlatformKind> kinds = {
      exp::PlatformKind::kDefault, exp::PlatformKind::kFreyr,
      exp::PlatformKind::kLibra, exp::PlatformKind::kLibraTrust};

  util::print_banner(
      std::cout,
      "Storm matrix — platforms vs stacked adversity (hetero nodes, spot "
      "drains w/ 2s notice, tenant quotas, correlated storm)");

  std::unique_ptr<obs::ObsSession> obs_session;
  int libra_goodput_wins = 0;
  for (size_t li = 0; li < levels.size(); ++li) {
    const auto& level = levels[li];
    std::vector<exp::NamedRun> runs;
    for (auto kind : kinds) {
      auto policy = build_platform(kind, level, catalog);
      const bool capture = cli.obs_requested() && li + 1 == levels.size() &&
                           kind == exp::PlatformKind::kLibra;
      sim::RunMetrics m;
      if (capture) {
        obs_session =
            std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
        m = exp::run_experiment(level_config(level, cli.smoke), policy, trace,
                                obs_session.get());
      } else {
        m = exp::run_experiment(level_config(level, cli.smoke), policy, trace);
      }
      runs.push_back({exp::platform_name(kind), std::move(m)});
    }
    exp::resilience_table("matrix level: " + level.name, runs)
        .print(std::cout);
    if (level.spot) {
      const auto& libra = runs[2].metrics;
      std::cout << "  libra drain notices: " << libra.drain_notices
                << ", budget-free evictions: " << libra.drain_evictions
                << "\n";
    }
    std::cout << "\n";
    double best_libra = 0.0, best_baseline = 0.0;
    for (size_t i = 0; i < runs.size(); ++i)
      (i < 2 ? best_baseline : best_libra) =
          std::max(i < 2 ? best_baseline : best_libra,
                   runs[i].metrics.goodput());
    if (best_libra >= best_baseline - 1e-9) ++libra_goodput_wins;
  }

  std::cout << "Expectation: drain-notice pullback, quota clamping and the "
               "trust breaker keep the\nLibra variants' goodput at/above the "
               "harvesting-free baselines at every level.\n"
            << "Measured: best Libra goodput >= best baseline on "
            << libra_goodput_wins << "/" << levels.size()
            << " matrix levels.\n";
  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
