// Figure 6 — CDFs of response latency (a) and speedup (b) for the six
// platforms on the single trace set / single-node cluster, plus the headline
// reductions (§8.3.1, §8.3.2).
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

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig06_harvest_cdf");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::single_node_trace(*catalog, 7);

  util::print_banner(std::cout,
                     "Figure 6 — latency & speedup CDFs, six platforms, "
                     "single set (165 invocations), 1 node x 72c/72GB");

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

  exp::cdf_table("Fig 6(a) — response latency CDF (s)", runs,
                 &sim::RunMetrics::response_latencies,
                 exp::default_quantiles())
      .print(std::cout);
  exp::cdf_table("Fig 6(b) — speedup CDF (Eq. 1)", runs,
                 &sim::RunMetrics::speedups, exp::default_quantiles())
      .print(std::cout);
  exp::summary_table("Headline summary", runs).print(std::cout);
  exp::outcome_table("Invocation outcomes", runs).print(std::cout);

  const double p99_default = runs[0].metrics.p99_latency();
  const double p99_freyr = runs[1].metrics.p99_latency();
  const double p99_libra = runs[2].metrics.p99_latency();
  std::cout << "\nPaper: Libra reduces P99 by 50% vs Default, 39% vs Freyr."
            << "\nMeasured: "
            << util::Table::pct((p99_default - p99_libra) / p99_default)
            << " vs Default, "
            << util::Table::pct((p99_freyr - p99_libra) / p99_freyr)
            << " vs Freyr.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
