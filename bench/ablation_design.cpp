// Design-choice ablations beyond the paper's own (DESIGN.md §5b): measures
// what each mechanism of the harvesting stack contributes by toggling one
// switch at a time on the single-node workload:
//   - timeliness-aware pool ordering (§5.1 priority)  vs blind ordering
//   - memory expiry filter (lend memory only within timeliness)
//   - runtime backfill (top up running borrowers on health pings)
//   - preemptive release on safeguard (vs Freyr's next-invocation fix)
//
// --smoke keeps only the full-Libra baseline plus the first ablation; with
// --trace-out or --trace-ndjson the full-Libra run is captured by an
// observability session.
#include <iostream>
#include <memory>

#include "core/libra_policy.h"
#include "core/profiler.h"
#include "exp/cli.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/obs_session.h"
#include "util/table.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using util::Table;

namespace {

sim::RunMetrics run_config(const core::LibraPolicyConfig& cfg,
                           std::shared_ptr<const sim::FunctionCatalog> catalog,
                           const std::vector<sim::Invocation>& trace,
                           obs::ObsSession* obs = nullptr) {
  core::ProfilerConfig pcfg;
  auto profiler = std::make_shared<core::Profiler>(pcfg, catalog);
  profiler->prewarm(*catalog, 1234, 30);
  auto policy = core::LibraPolicy::with_coverage_scheduler(cfg, profiler);
  return exp::run_experiment(exp::single_node_config(), policy, trace, obs);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_ablation_design");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::single_node_trace(*catalog, 7);

  util::print_banner(std::cout,
                     "Design ablations — one harvesting mechanism off at a "
                     "time (single set, 1 node)");

  struct Variant {
    const char* name;
    core::LibraPolicyConfig cfg;
  };
  std::vector<Variant> variants;
  variants.push_back({"Libra (full)", core::LibraPolicyConfig{}});
  {
    core::LibraPolicyConfig c;
    c.timeliness_aware_pool = false;
    variants.push_back({"- timeliness ordering", c});
  }
  {
    core::LibraPolicyConfig c;
    c.mem_expiry_filter = false;
    variants.push_back({"- mem expiry filter", c});
  }
  {
    core::LibraPolicyConfig c;
    c.runtime_backfill = false;
    variants.push_back({"- runtime backfill", c});
  }
  {
    core::LibraPolicyConfig c;
    c.preemptive_release_on_safeguard = false;
    variants.push_back({"- preemptive release", c});
  }
  if (cli.smoke) variants.resize(2);

  std::unique_ptr<obs::ObsSession> obs_session;
  Table table("Mechanism ablations");
  table.set_header({"variant", "p50(s)", "p99(s)", "worst slowdown",
                    "borrow gets", "revocations", "idle cpu core*s",
                    "safeguarded"});
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    const auto& v = variants[vi];
    const bool capture = cli.obs_requested() && vi == 0;  // Libra (full)
    if (capture)
      obs_session =
          std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
    auto m = run_config(v.cfg, catalog, trace,
                        capture ? obs_session.get() : nullptr);
    auto lats = m.response_latencies();
    double worst = 0;
    for (const auto& rec : m.invocations) worst = std::min(worst, rec.speedup);
    table.add_row({v.name, Table::fmt(util::percentile(lats, 50), 2),
                   Table::fmt(m.p99_latency(), 2), Table::pct(-worst),
                   std::to_string(m.policy.borrow_gets),
                   std::to_string(m.policy.pool_revocations),
                   Table::fmt(m.policy.pool_idle_cpu_core_seconds, 0),
                   Table::pct(m.safeguarded_fraction())});
  }
  table.print(std::cout);
  std::cout << "\nReading guide: removing backfill cuts borrow volume; "
               "removing preemptive release turns the safeguard into Freyr's "
               "next-invocation fix (worse degradation); removing the memory "
               "expiry filter risks borrowers losing memory mid-run.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
