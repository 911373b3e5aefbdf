// Figure 14 — safeguard threshold sensitivity: (a) fraction of invocations
// safeguarded and (b) P99 latency as the threshold sweeps 0 -> 1 (§8.8).
//
// --smoke sweeps in strides of 0.5 instead of 0.1; with --trace-out or
// --trace-ndjson the final (threshold = 1.0) run is captured by an
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
      exp::parse_cli_or_exit(argc, argv, "bench_fig14_safeguard");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::single_node_trace(*catalog, 7);

  util::print_banner(std::cout,
                     "Figure 14 — safeguard threshold sensitivity "
                     "(single set, single node)");

  Table table("Safeguard threshold sweep");
  table.set_header({"threshold", "safeguarded ratio", "P99 latency (s)",
                    "worst slowdown"});
  std::unique_ptr<obs::ObsSession> obs_session;
  const int stride = cli.smoke ? 5 : 1;
  double first_ratio = -1, last_ratio = -1;
  for (int step = 0; step <= 10; step += stride) {
    const double threshold = 0.1 * step;
    exp::PlatformTuning tuning;
    tuning.safeguard_threshold = threshold;
    auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog,
                                     tuning);
    const bool capture = cli.obs_requested() && step == 10;
    if (capture)
      obs_session =
          std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
    auto m = exp::run_experiment(exp::single_node_config(), policy, trace,
                                 capture ? obs_session.get() : nullptr);
    double worst = 0;
    for (const auto& rec : m.invocations) worst = std::min(worst, rec.speedup);
    table.add_row({Table::fmt(threshold, 1),
                   Table::pct(m.safeguarded_fraction()),
                   Table::fmt(m.p99_latency(), 2), Table::pct(-worst)});
    if (step == 0) first_ratio = m.safeguarded_fraction();
    if (step == 10) last_ratio = m.safeguarded_fraction();
  }
  table.print(std::cout);
  std::cout << "\nPaper: safeguarded ratio falls as the threshold rises; "
               "P99 is best near 0.8 and degrades beyond it.\nMeasured: "
               "ratio falls from "
            << Table::pct(first_ratio) << " to " << Table::pct(last_ratio)
            << " across the sweep.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
