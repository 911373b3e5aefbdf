// Figure 1 — motivating example. DH and VP invoked with three input cases
// under (a) default fixed allocation and (b) harvesting: DH's idle CPU cores
// and memory are harvested and reassigned to the under-provisioned VP
// invocation, reducing VP's latency without hurting DH.
//
// The three cases are closed-form model evaluations (no simulation), so
// --smoke and the observability flags are accepted for CLI uniformity but
// have nothing to reduce or capture.
#include <iostream>

#include "exp/cli.h"
#include "sim/execution_model.h"
#include "util/table.h"
#include "workload/function_catalog.h"

using namespace libra;
using util::Table;

namespace {

// Finds a VP content seed whose demand has the requested CPU peak, so the
// three cases match the figure's "video-1/2/3" narrative.
sim::InputSpec vp_input_with_cpu(const sim::FunctionModel& vp,
                                 double target_cpu) {
  for (uint64_t seed = 0; seed < 100000; ++seed) {
    const sim::InputSpec in{50.0, seed};
    if (vp.evaluate(in).demand.cpu == target_cpu) return in;
  }
  return {50.0, 0};
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_fig01_motivation");

  const auto catalog = workload::sebs_catalog();
  const auto& dh = catalog.at(4);
  const auto& vp = catalog.at(5);
  sim::ExecutionModel model;

  struct Case {
    const char* label;
    double dh_size;
    double vp_cpu;  // demand peak of the chosen video
  };
  // Case 1: 4K pages / video-1 (hungry); Case 2: 100 pages / video-2;
  // Case 3: 10K pages / video-3 (everything saturated).
  const Case cases[] = {{"Case 1 (4K/video-1)", 4000, 7},
                        {"Case 2 (100/video-2)", 100, 6},
                        {"Case 3 (10K/video-3)", 10000, 2}};

  util::print_banner(std::cout, "Figure 1 — why harvest: DH + VP, 3 cases");
  Table table("Default vs Harvesting (CPU cores; DH user=6c, VP user=2c)");
  table.set_header({"case", "DH used/alloc", "DH idle", "VP demand",
                    "VP lat default(s)", "VP lat harvest(s)", "VP reduced"});
  for (const auto& c : cases) {
    const sim::InputSpec dh_in{c.dh_size, 12345};
    const auto dh_truth = dh.evaluate(dh_in);
    const auto vp_in = vp_input_with_cpu(vp, c.vp_cpu);
    const auto vp_truth = vp.evaluate(vp_in);

    const double dh_used = std::min(dh_truth.demand.cpu,
                                    dh.user_allocation().cpu);
    const double dh_idle = std::max(0.0, dh.user_allocation().cpu - dh_used);

    const double vp_default =
        model.exec_time(vp.user_allocation(), vp_truth);
    // Harvesting: VP additionally receives DH's idle cores.
    const sim::Resources vp_boosted{vp.user_allocation().cpu + dh_idle,
                                    vp.user_allocation().mem};
    const double vp_harvest = model.exec_time(vp_boosted, vp_truth);
    // Safety check the figure asserts: DH's latency is unchanged.
    const sim::Resources dh_shrunk{dh.user_allocation().cpu - dh_idle,
                                   dh.user_allocation().mem};
    const double dh_default = model.exec_time(dh.user_allocation(), dh_truth);
    const double dh_after = model.exec_time(dh_shrunk, dh_truth);
    if (dh_after > dh_default * 1.0001) {
      std::cout << "ERROR: harvesting degraded DH in " << c.label << "\n";
      return 1;
    }

    table.add_row({c.label,
                   Table::fmt(dh_used, 1) + "/" +
                       Table::fmt(dh.user_allocation().cpu, 0),
                   Table::fmt(dh_idle, 1), Table::fmt(vp_truth.demand.cpu, 0),
                   Table::fmt(vp_default, 2), Table::fmt(vp_harvest, 2),
                   Table::pct((vp_default - vp_harvest) /
                              std::max(1e-9, vp_default))});
  }
  table.print(std::cout);
  std::cout << "\nShape check: Cases 1-2 reduce VP latency via DH's idle "
               "cores; Case 3 has no idle resources to harvest.\n";
  return 0;
}
