// Figure 11 — average and peak CPU/memory utilization of the five
// scheduling algorithms across the RPM sweep (§8.4).
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
      exp::parse_cli_or_exit(argc, argv, "bench_fig11_util_rpm");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const std::vector<exp::SchedulerKind> kinds = {
      exp::SchedulerKind::kDefaultHash, exp::SchedulerKind::kRoundRobin,
      exp::SchedulerKind::kJsq, exp::SchedulerKind::kMws,
      exp::SchedulerKind::kCoverage};

  util::print_banner(std::cout,
                     "Figure 11 — avg/peak CPU & memory utilization vs RPM");

  Table avg_cpu("Fig 11(a) — average CPU utilization");
  Table peak_cpu("Fig 11(b) — peak CPU utilization");
  Table avg_mem("Fig 11(c) — average memory utilization");
  Table peak_mem("Fig 11(d) — peak memory utilization");
  std::vector<std::string> header = {"RPM"};
  for (auto k : kinds) header.push_back(exp::scheduler_name(k));
  for (Table* t : {&avg_cpu, &peak_cpu, &avg_mem, &peak_mem})
    t->set_header(header);

  std::vector<double> rpms = workload::multi_set_rpms();
  if (cli.smoke) rpms.resize(std::min<size_t>(rpms.size(), 2));
  std::unique_ptr<obs::ObsSession> obs_session;

  for (size_t ri = 0; ri < rpms.size(); ++ri) {
    const double rpm = rpms[ri];
    const auto trace = workload::multi_trace(*catalog, rpm, 5);
    std::vector<std::string> r1 = {Table::fmt(rpm, 0)},
                             r2 = {Table::fmt(rpm, 0)},
                             r3 = {Table::fmt(rpm, 0)},
                             r4 = {Table::fmt(rpm, 0)};
    for (auto kind : kinds) {
      auto policy = exp::make_scheduler_platform(kind, catalog);
      const bool capture = cli.obs_requested() && ri + 1 == rpms.size() &&
                           kind == exp::SchedulerKind::kCoverage;
      if (capture)
        obs_session =
            std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
      auto m = exp::run_experiment(exp::multi_node_config(), policy, trace,
                                   capture ? obs_session.get() : nullptr);
      r1.push_back(Table::pct(m.avg_cpu_utilization()));
      r2.push_back(Table::pct(m.peak_cpu_utilization()));
      r3.push_back(Table::pct(m.avg_mem_utilization()));
      r4.push_back(Table::pct(m.peak_mem_utilization()));
    }
    avg_cpu.add_row(std::move(r1));
    peak_cpu.add_row(std::move(r2));
    avg_mem.add_row(std::move(r3));
    peak_mem.add_row(std::move(r4));
  }
  avg_cpu.print(std::cout);
  peak_cpu.print(std::cout);
  avg_mem.print(std::cout);
  peak_mem.print(std::cout);
  std::cout << "\nPaper: Libra generally maintains the highest CPU and "
               "memory utilization among the baselines.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
