// Figure 7 — CPU/memory allocation and utilization timelines of the six
// platforms, plus the average-utilization ratios and completion-time deltas
// quoted in §8.3.
//
// --smoke restricts the sweep to Default/Freyr/Libra; with --trace-out or
// --trace-ndjson the Libra run is captured by an observability session.
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
      exp::parse_cli_or_exit(argc, argv, "bench_fig07_utilization");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::single_node_trace(*catalog, 7);

  util::print_banner(std::cout,
                     "Figure 7 — utilization timelines, six platforms");

  std::vector<exp::PlatformKind> kinds = {
      exp::PlatformKind::kDefault, exp::PlatformKind::kFreyr,
      exp::PlatformKind::kLibra,   exp::PlatformKind::kLibraNS,
      exp::PlatformKind::kLibraNP, exp::PlatformKind::kLibraNSP};
  if (cli.smoke) kinds.resize(3);  // Default / Freyr / Libra

  std::unique_ptr<obs::ObsSession> obs_session;
  std::vector<exp::NamedRun> runs;
  for (auto kind : kinds) {
    auto policy = exp::make_platform(kind, catalog);
    const bool capture =
        cli.obs_requested() && kind == exp::PlatformKind::kLibra;
    if (capture)
      obs_session =
          std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
    runs.push_back({exp::platform_name(kind),
                    exp::run_experiment(exp::single_node_config(), policy,
                                        trace,
                                        capture ? obs_session.get()
                                                : nullptr)});
  }

  for (const auto& run : runs) {
    exp::utilization_timeline_table("Timeline — " + run.name, run.metrics, 12)
        .print(std::cout);
  }

  Table ratios("Average utilization & completion vs Libra (paper: Libra = "
               "3.82x/2.09x CPU, 2.93x/2.48x mem of Default/Freyr)");
  ratios.set_header({"platform", "avg cpu util", "avg mem util",
                     "libra cpu ratio", "libra mem ratio", "completion(s)",
                     "libra faster by"});
  const auto& libra = runs[2].metrics;
  for (const auto& run : runs) {
    const auto& m = run.metrics;
    ratios.add_row(
        {run.name, Table::pct(m.avg_cpu_utilization()),
         Table::pct(m.avg_mem_utilization()),
         Table::fmt(libra.avg_cpu_utilization() /
                        std::max(1e-9, m.avg_cpu_utilization()),
                    2) + "x",
         Table::fmt(libra.avg_mem_utilization() /
                        std::max(1e-9, m.avg_mem_utilization()),
                    2) + "x",
         Table::fmt(m.workload_completion_time(), 1),
         Table::pct((m.workload_completion_time() -
                     libra.workload_completion_time()) /
                    std::max(1e-9, m.workload_completion_time()))});
  }
  ratios.print(std::cout);

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
