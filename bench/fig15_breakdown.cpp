// Figure 15 — per-function latency breakdown: frontend, profiler,
// scheduler, harvest pool, container init, code execution (§8.9). Libra's
// own components must be negligible next to container init + execution.
//
// Single-run bench: --smoke is a no-op; with --trace-out or --trace-ndjson
// the run is captured by an observability session.
#include <iostream>
#include <memory>

#include "exp/cli.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/obs_session.h"
#include "util/stats.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using util::Table;

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig15_breakdown");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::single_node_trace(*catalog, 7);

  util::print_banner(std::cout, "Figure 15 — latency breakdown per function");

  std::unique_ptr<obs::ObsSession> obs_session;
  if (cli.obs_requested())
    obs_session =
        std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
  auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog);
  auto m = exp::run_experiment(exp::multi_node_config(), policy, trace,
                               obs_session.get());

  Table table("Mean stage latency per function (ms; exec in seconds)");
  table.set_header({"func", "frontend(ms)", "profiler(ms)", "scheduler(ms)",
                    "pool(ms)", "container(ms)", "exec(s)",
                    "libra overhead share"});
  for (size_t f = 0; f < catalog->size(); ++f) {
    std::vector<double> fe, pr, sc, po, co, ex;
    for (const auto& rec : m.invocations) {
      if (rec.func != static_cast<int>(f) || !rec.completed) continue;
      fe.push_back(rec.stage_frontend);
      pr.push_back(rec.stage_profiler);
      sc.push_back(rec.stage_scheduler);
      po.push_back(rec.stage_pool);
      co.push_back(rec.stage_container);
      ex.push_back(rec.stage_exec);
    }
    if (fe.empty()) continue;
    // The scheduler stage includes queueing for capacity; report the median
    // so a few queued invocations don't mask the component cost.
    const double sched_ms = util::percentile(sc, 50) * 1e3;
    const double overhead =
        util::mean(fe) + util::mean(pr) + util::percentile(sc, 50) +
        util::mean(po);
    const double total = overhead + util::mean(co) + util::mean(ex);
    table.add_row({catalog->at(static_cast<int>(f)).name(),
                   Table::fmt(util::mean(fe) * 1e3, 2),
                   Table::fmt(util::mean(pr) * 1e3, 2),
                   Table::fmt(sched_ms, 2),
                   Table::fmt(util::mean(po) * 1e3, 2),
                   Table::fmt(util::mean(co) * 1e3, 1),
                   Table::fmt(util::mean(ex), 2),
                   Table::pct(overhead / std::max(1e-9, total), 3)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: Libra's components incur negligible overhead "
               "compared to container initialization and execution time.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
