// Figure 8 — per-invocation resource reassignment scatter: (core x sec,
// speedup) and (MB x sec, speedup) for each platform, broken down by the
// four marker classes (default / harvest / accelerate / safeguard).
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
#include "util/stats.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using util::Table;

namespace {

const char* outcome_name(sim::InvOutcome o) {
  switch (o) {
    case sim::InvOutcome::kDefault:
      return "default";
    case sim::InvOutcome::kHarvested:
      return "harvest";
    case sim::InvOutcome::kAccelerated:
      return "accelerate";
    case sim::InvOutcome::kSafeguarded:
      return "safeguard";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig08_invocations");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::single_node_trace(*catalog, 7);

  util::print_banner(std::cout,
                     "Figure 8 — per-invocation reassignment vs speedup");

  std::vector<exp::PlatformKind> kinds = {
      exp::PlatformKind::kDefault, exp::PlatformKind::kFreyr,
      exp::PlatformKind::kLibra,   exp::PlatformKind::kLibraNS,
      exp::PlatformKind::kLibraNP, exp::PlatformKind::kLibraNSP};
  if (cli.smoke) kinds.resize(3);  // Default / Freyr / Libra

  std::unique_ptr<obs::ObsSession> obs_session;
  for (auto kind : kinds) {
    auto policy = exp::make_platform(kind, catalog);
    const bool capture =
        cli.obs_requested() && kind == exp::PlatformKind::kLibra;
    if (capture)
      obs_session =
          std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
    auto m = exp::run_experiment(exp::single_node_config(), policy, trace,
                                 capture ? obs_session.get() : nullptr);

    Table table("Fig 8 — " + exp::platform_name(kind));
    table.set_header({"class", "count", "core*s min", "core*s max",
                      "MB*s min", "MB*s max", "speedup min", "speedup med",
                      "speedup max"});
    for (auto outcome :
         {sim::InvOutcome::kDefault, sim::InvOutcome::kHarvested,
          sim::InvOutcome::kAccelerated, sim::InvOutcome::kSafeguarded}) {
      std::vector<double> cs, mbs, spd;
      for (const auto& rec : m.invocations) {
        if (rec.outcome != outcome || !rec.completed) continue;
        cs.push_back(rec.reassigned_core_seconds);
        mbs.push_back(rec.reassigned_mb_seconds);
        spd.push_back(rec.speedup);
      }
      if (cs.empty()) {
        table.add_row({outcome_name(outcome), "0", "-", "-", "-", "-", "-",
                       "-", "-"});
        continue;
      }
      table.add_row({outcome_name(outcome), std::to_string(cs.size()),
                     Table::fmt(util::min_of(cs), 1),
                     Table::fmt(util::max_of(cs), 1),
                     Table::fmt(util::min_of(mbs), 0),
                     Table::fmt(util::max_of(mbs), 0),
                     Table::fmt(util::min_of(spd)),
                     Table::fmt(util::percentile(spd, 50)),
                     Table::fmt(util::max_of(spd))});
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: Default reassigns nothing; Libra shows "
               "negative core*s for harvested and positive core*s with "
               "positive speedups for accelerated invocations; unsafe "
               "variants show deep negative speedups.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
