// Resilience under node churn — not a paper figure, but the safety story
// behind §5.1's preemptive release: when a worker dies, every harvest grant
// sourced from it must be revoked before anything is rescheduled. This bench
// sweeps a crash/recovery renewal process (plus ping drops and cold-start
// failures) over the 4-node cluster and compares Default / Freyr / Libra on
// goodput, lost work and P99 latency. The same seed and fault profile are
// replayed for every platform, so the clusters see identical churn.
// Pass --smoke for a reduced CI sweep; --trace-out PREFIX captures the Libra
// run at the heaviest churn level as a Chrome trace + CSV.
#include <algorithm>
#include <iostream>
#include <memory>

#include "exp/cli.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/obs_session.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using util::Table;

namespace {

struct ChurnLevel {
  std::string name;
  double mtbf;  // 0 disables the sampled crash process
  double mttr;
};

sim::EngineConfig faulty_config(const ChurnLevel& level) {
  sim::EngineConfig cfg = exp::multi_node_config();
  cfg.fault_profile.seed = 0xc0ffee;
  cfg.fault_profile.node_mtbf = level.mtbf;
  cfg.fault_profile.node_mttr = level.mttr;
  cfg.fault_profile.ping_drop_prob = 0.10;
  cfg.fault_profile.cold_start_fail_prob = 0.05;
  cfg.placement_timeout = 120.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fault_resilience");
  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::multi_trace(
      *catalog, /*rpm=*/cli.smoke ? 60 : 120, /*seed=*/5);

  std::vector<ChurnLevel> levels = {
      {"no churn", 0.0, 10.0},
      {"mtbf 120s", 120.0, 10.0},
      {"mtbf 60s", 60.0, 10.0},
      {"mtbf 30s", 30.0, 10.0},
  };
  if (cli.smoke) levels = {{"no churn", 0.0, 10.0}, {"mtbf 60s", 60.0, 10.0}};
  const std::vector<exp::PlatformKind> kinds = {
      exp::PlatformKind::kDefault, exp::PlatformKind::kFreyr,
      exp::PlatformKind::kLibra};

  util::print_banner(std::cout,
                     "Resilience — Default vs Freyr vs Libra under node churn "
                     "(4 nodes x 32c/32GB, 120 RPM, 10% ping drops, 5% cold "
                     "start failures)");

  // The capture is scoped to one run (invocation ids restart per run):
  // Libra under the heaviest churn of the sweep.
  std::unique_ptr<obs::ObsSession> obs_session;

  int libra_goodput_wins = 0;
  for (size_t li = 0; li < levels.size(); ++li) {
    const auto& level = levels[li];
    std::vector<exp::NamedRun> runs;
    for (auto kind : kinds) {
      auto policy = exp::make_platform(kind, catalog);
      const bool capture = cli.obs_requested() && li + 1 == levels.size() &&
                           kind == exp::PlatformKind::kLibra;
      sim::RunMetrics m;
      if (capture) {
        obs_session =
            std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
        m = exp::run_experiment(faulty_config(level), policy, trace,
                                obs_session.get());
      } else {
        m = exp::run_experiment(faulty_config(level), policy, trace);
      }
      runs.push_back({exp::platform_name(kind), std::move(m)});
    }
    exp::resilience_table("churn level: " + level.name, runs)
        .print(std::cout);
    std::cout << "\n";
    const double libra_goodput = runs.back().metrics.goodput();
    double best_baseline = 0.0;
    for (size_t i = 0; i + 1 < runs.size(); ++i)
      best_baseline = std::max(best_baseline, runs[i].metrics.goodput());
    if (libra_goodput >= best_baseline - 1e-9) ++libra_goodput_wins;
  }

  std::cout << "Expectation: preemptive release keeps Libra's harvest grants "
               "safe under churn, so\nits goodput stays at/above the "
               "baselines while it still accelerates invocations.\n"
            << "Measured: Libra goodput >= best baseline on "
            << libra_goodput_wins << "/" << levels.size()
            << " churn levels.\n";
  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
