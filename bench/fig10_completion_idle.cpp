// Figure 10 — (a) workload completion time, (b) idle-CPU x idle-time and
// (c) idle-memory x idle-time of harvested resources, per scheduling
// algorithm per RPM. Lower idle values mean the scheduler routes accelerable
// invocations where the harvested resources are (§8.4).
//
// --smoke restricts the sweep to the first two RPM settings; with
// --trace-out or --trace-ndjson the Libra (coverage) run at the highest RPM
// of the sweep is captured by an observability session.
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

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig10_completion_idle");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const std::vector<exp::SchedulerKind> kinds = {
      exp::SchedulerKind::kDefaultHash, exp::SchedulerKind::kRoundRobin,
      exp::SchedulerKind::kJsq, exp::SchedulerKind::kMws,
      exp::SchedulerKind::kCoverage};

  util::print_banner(std::cout,
                     "Figure 10 — completion time & idle harvested-resource "
                     "time, 5 algorithms x 10 RPM sets");

  Table completion("Fig 10(a) — workload completion time (s)");
  Table idle_cpu("Fig 10(b) — idle CPU core x idle time (core*s)");
  Table idle_mem("Fig 10(c) — idle memory x idle time (MB*s)");
  std::vector<std::string> header = {"RPM"};
  for (auto k : kinds) header.push_back(exp::scheduler_name(k));
  completion.set_header(header);
  idle_cpu.set_header(header);
  idle_mem.set_header(header);

  std::vector<double> rpms = workload::multi_set_rpms();
  if (cli.smoke) rpms.resize(std::min<size_t>(rpms.size(), 2));
  std::unique_ptr<obs::ObsSession> obs_session;

  int libra_lowest_idle = 0;
  for (size_t ri = 0; ri < rpms.size(); ++ri) {
    const double rpm = rpms[ri];
    const auto trace = workload::multi_trace(*catalog, rpm, 5);
    std::vector<std::string> crow = {Table::fmt(rpm, 0)};
    std::vector<std::string> irow = {Table::fmt(rpm, 0)};
    std::vector<std::string> mrow = {Table::fmt(rpm, 0)};
    double libra_idle = 0, best_other_idle = 1e18;
    for (auto kind : kinds) {
      auto policy = exp::make_scheduler_platform(kind, catalog);
      const bool capture = cli.obs_requested() && ri + 1 == rpms.size() &&
                           kind == exp::SchedulerKind::kCoverage;
      if (capture)
        obs_session =
            std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
      auto m = exp::run_experiment(exp::multi_node_config(), policy, trace,
                                   capture ? obs_session.get() : nullptr);
      crow.push_back(Table::fmt(m.workload_completion_time(), 1));
      irow.push_back(Table::fmt(m.policy.pool_idle_cpu_core_seconds, 0));
      mrow.push_back(Table::fmt(m.policy.pool_idle_mem_mb_seconds / 1000.0,
                                0) + "K");
      if (kind == exp::SchedulerKind::kCoverage)
        libra_idle = m.policy.pool_idle_cpu_core_seconds;
      else
        best_other_idle =
            std::min(best_other_idle, m.policy.pool_idle_cpu_core_seconds);
    }
    if (libra_idle <= best_other_idle * 1.05) ++libra_lowest_idle;
    completion.add_row(std::move(crow));
    idle_cpu.add_row(std::move(irow));
    idle_mem.add_row(std::move(mrow));
  }
  completion.print(std::cout);
  idle_cpu.print(std::cout);
  idle_mem.print(std::cout);
  std::cout << "\nPaper: Libra generally maintains the lowest idle values — "
               "it makes the best use of harvested resources.\nMeasured: "
               "Libra at/near lowest idle CPU time on "
            << libra_lowest_idle << "/" << rpms.size()
            << " RPM settings.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
