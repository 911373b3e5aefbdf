// Figure 16 — demand-coverage weight sensitivity: CPU/memory idle values
// and P99 latency as alpha sweeps 0 -> 1 on the multi-node cluster at
// 120 RPM (§8.8). Higher alpha makes the scheduler chase CPU coverage.
//
// --smoke sweeps alpha in strides of 0.5 instead of 0.1; with --trace-out
// or --trace-ndjson the final (alpha = 1.0) run is captured by an
// observability session.
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

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig16_coverage_weight");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::multi_trace(*catalog, 120, 5);

  util::print_banner(std::cout,
                     "Figure 16 — coverage weight sensitivity (multi set @ "
                     "120 RPM, 4 nodes)");

  Table table("Coverage weight sweep (alpha: CPU share of weighted coverage)");
  table.set_header({"alpha", "CPU idle (core*s)", "mem idle (MB*s)",
                    "P99 latency (s)"});
  std::unique_ptr<obs::ObsSession> obs_session;
  const int stride = cli.smoke ? 5 : 1;
  double cpu_idle_low = 0, cpu_idle_high = 0;
  for (int step = 0; step <= 10; step += stride) {
    const double alpha = 0.1 * step;
    exp::PlatformTuning tuning;
    tuning.coverage_alpha = alpha;
    auto policy = exp::make_scheduler_platform(exp::SchedulerKind::kCoverage,
                                               catalog, tuning);
    const bool capture = cli.obs_requested() && step == 10;
    if (capture)
      obs_session =
          std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
    auto m = exp::run_experiment(exp::multi_node_config(), policy, trace,
                                 capture ? obs_session.get() : nullptr);
    table.add_row({Table::fmt(alpha, 1),
                   Table::fmt(m.policy.pool_idle_cpu_core_seconds, 0),
                   Table::fmt(m.policy.pool_idle_mem_mb_seconds, 0),
                   Table::fmt(m.p99_latency(), 2)});
    if (step == 0) cpu_idle_low = m.policy.pool_idle_cpu_core_seconds;
    if (step == 10) cpu_idle_high = m.policy.pool_idle_cpu_core_seconds;
  }
  table.print(std::cout);
  std::cout << "\nPaper: raising alpha makes CPU coverage dominate - CPU "
               "idle value falls, memory idle rises; alpha=0.9 achieves the "
               "lowest P99.\nMeasured: CPU idle "
            << Table::fmt(cpu_idle_low, 0) << " (alpha=0) vs "
            << Table::fmt(cpu_idle_high, 0) << " (alpha=1).\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
