// Figure 13 — (a) profiler model ablation (histogram-only vs ML-only vs
// full Libra) and (b)/(c) input-size sensitivity: speedup CDFs on
// size-related and size-unrelated workloads (§8.6, §8.7).
//
// --smoke skips the model-ablation section (a); with --trace-out or
// --trace-ndjson the Libra run on the size-related workload is captured by
// an observability session.
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

namespace {

std::vector<exp::NamedRun> run_platforms(
    const sim::FunctionCatalog& catalog_value,
    const std::vector<exp::PlatformKind>& kinds, uint64_t seed,
    obs::ObsSession* obs_on_libra = nullptr) {
  auto catalog =
      std::make_shared<const sim::FunctionCatalog>(catalog_value);
  const auto trace = workload::single_node_trace(*catalog, seed);
  std::vector<exp::NamedRun> runs;
  for (auto kind : kinds) {
    auto policy = exp::make_platform(kind, catalog);
    obs::ObsSession* obs =
        kind == exp::PlatformKind::kLibra ? obs_on_libra : nullptr;
    runs.push_back({exp::platform_name(kind),
                    exp::run_experiment(exp::single_node_config(), policy,
                                        trace, obs)});
  }
  return runs;
}

double p99_gain(const exp::NamedRun& base, const exp::NamedRun& libra) {
  const double b = base.metrics.p99_latency();
  return (b - libra.metrics.p99_latency()) / std::max(1e-9, b);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig13_sensitivity");

  util::print_banner(std::cout,
                     "Figure 13 — model ablation & input-size sensitivity");

  // (a) Model ablation on the hybrid (all ten functions) workload.
  if (!cli.smoke) {
    auto ablation = run_platforms(
        workload::sebs_catalog(),
        {exp::PlatformKind::kLibraHist, exp::PlatformKind::kLibraMl,
         exp::PlatformKind::kLibra},
        7);
    exp::cdf_table("Fig 13(a) — speedup CDF: Hist-only vs ML-only vs Libra",
                   ablation, &sim::RunMetrics::speedups,
                   exp::default_quantiles())
        .print(std::cout);
    exp::summary_table("Model ablation summary", ablation).print(std::cout);
  }

  std::unique_ptr<obs::ObsSession> obs_session;
  if (cli.obs_requested())
    obs_session =
        std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));

  // (b) Input size-related workload (UL, TN, CP, DV, DH).
  const std::vector<exp::PlatformKind> trio = {exp::PlatformKind::kDefault,
                                               exp::PlatformKind::kFreyr,
                                               exp::PlatformKind::kLibra};
  auto related = run_platforms(workload::sebs_catalog_size_related(), trio, 7,
                               obs_session.get());
  exp::cdf_table("Fig 13(b) — speedup CDF on the size-related workload",
                 related, &sim::RunMetrics::speedups,
                 exp::default_quantiles())
      .print(std::cout);

  // (c) Input size-unrelated workload (VP, IR, GP, GM, GB).
  auto unrelated =
      run_platforms(workload::sebs_catalog_size_unrelated(), trio, 7);
  exp::cdf_table("Fig 13(c) — speedup CDF on the size-unrelated workload",
                 unrelated, &sim::RunMetrics::speedups,
                 exp::default_quantiles())
      .print(std::cout);

  std::cout << "\nPaper: gains are largest on the size-related workload "
               "(p99 latency cut 94%/58% vs Default/Freyr), smallest on the "
               "unrelated one (13%/12%), hybrid in between.\nMeasured p99 "
               "latency reduction vs Default: related "
            << util::Table::pct(p99_gain(related[0], related[2]))
            << ", unrelated "
            << util::Table::pct(p99_gain(unrelated[0], unrelated[2])) << ".\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
