// Multi-controller control plane sweep (DESIGN.md §5k) — not a paper figure,
// but the scaling story behind the sharded front ends: how do tail latency,
// goodput, stealing and stale-view conflicts move as the catalog is sharded
// across more controllers under progressively worse gossip?
//
//   controllers  1 / 2 / 4 front ends (smoke: 1 / 4)
//   gossip       fresh  — pass-through refresh on every delivered ping
//                stale  — periodic whole-view refresh every 2 s
//                lossy  — pass-through with 35% of gossip messages dropped
//   churn        off / on (seeded node crash-recovery plus ping loss)
//
// Every cell replays the identical trace, so differences are attributable to
// the control-plane configuration alone. Two hard gates:
//   1. Within every fresh-gossip group the RunMetrics digest must be
//      bit-identical across controller counts (the §5k digest-identity
//      contract) — exit 1 on mismatch.
//   2. Work conservation: every cell's control-plane decision count must
//      equal the engine's sched_decisions (stealing moves work, never
//      duplicates or drops it).
//
// The full sweep is also written to BENCH_multi_controller.json for the CI
// artifact trail.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "sim/engine_config.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using util::Table;

namespace {

struct GossipMode {
  std::string name;
  double period = 0.0;  // 0 = pass-through
  double drop_prob = 0.0;
};

struct Cell {
  int controllers = 1;
  std::string gossip;
  bool churn = false;
  double p99_latency_s = 0.0;
  double goodput = 0.0;
  long stolen = 0;
  long conflicts = 0;
  double staleness_mean_s = 0.0;
  double staleness_max_s = 0.0;
  uint64_t digest = 0;
};

sim::EngineConfig cell_config(int controllers, const GossipMode& gossip,
                              bool churn) {
  sim::EngineConfig cfg = exp::jetstream_config(/*nodes=*/8, /*num_shards=*/4);
  cfg.control.num_controllers = controllers;
  cfg.control.gossip_period = gossip.period;
  // Aggressive stealing so the steal column is non-trivial at this scale;
  // fresh-gossip cells must stay digest-identical regardless.
  cfg.control.steal_watermark = 2;
  cfg.fault_profile.seed = 0xc0417a11;
  cfg.fault_profile.gossip_drop_prob = gossip.drop_prob;
  if (churn) {
    cfg.fault_profile.node_mtbf = 90.0;
    cfg.fault_profile.node_mttr = 10.0;
    cfg.fault_profile.ping_drop_prob = 0.10;
  }
  return cfg;
}

/// Aggregated decision-time view staleness across all controllers.
void fill_staleness(const sim::ctrl::ControlPlaneStats& cp, Cell& cell) {
  long samples = 0;
  double sum = 0.0;
  for (const auto& c : cp.controllers) {
    samples += c.staleness_samples;
    sum += c.staleness_sum;
    cell.staleness_max_s = std::max(cell.staleness_max_s, c.staleness_max);
  }
  cell.staleness_mean_s =
      samples > 0 ? sum / static_cast<double>(samples) : 0.0;
}

// Cell fields are numbers and fixed identifiers — nothing needs escaping.
void write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"controllers\": " << c.controllers << ", \"gossip\": \""
        << c.gossip << "\", \"churn\": "
        << (c.churn ? "true" : "false")
        << ", \"p99_latency_s\": " << c.p99_latency_s
        << ", \"goodput\": " << c.goodput << ", \"stolen\": " << c.stolen
        << ", \"conflicts\": " << c.conflicts
        << ", \"staleness_mean_s\": " << c.staleness_mean_s
        << ", \"staleness_max_s\": " << c.staleness_max_s << ", \"digest\": \""
        << exp::digest_hex(c.digest) << "\"}" << (i + 1 < cells.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_multi_controller");

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  // A cold burst in front of a steady stream: the burst builds real
  // controller-queue depth (so the steal columns are non-trivial), the
  // stream keeps the run long enough for churn and gossip staleness to bite.
  auto trace =
      workload::burst_trace(*catalog, /*count=*/cli.smoke ? 200 : 500,
                            /*seed=*/5);
  const auto steady =
      workload::multi_trace(*catalog, /*rpm=*/cli.smoke ? 60 : 150, /*seed=*/9);
  trace.insert(trace.end(), steady.begin(), steady.end());
  for (size_t i = 0; i < trace.size(); ++i)
    trace[i].id = static_cast<sim::InvocationId>(i);

  util::print_banner(
      std::cout,
      "Multi-controller sweep — sharded front ends x gossip staleness x "
      "churn (Libra platform, identical trace per cell)");

  const std::vector<int> controller_sweep =
      cli.smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4};
  const std::vector<GossipMode> gossip_modes = {
      {"fresh", 0.0, 0.0},
      {"stale", 2.0, 0.0},
      {"lossy", 0.0, 0.35},
  };

  std::vector<Cell> cells;
  bool digests_match = true;
  bool conserved = true;
  for (bool churn : {false, true}) {
    Table table(std::string("churn ") + (churn ? "on" : "off"));
    table.set_header({"controllers", "gossip", "p99 lat (s)", "goodput",
                      "stolen", "conflicts", "stale mean (s)", "digest"});
    for (const auto& gossip : gossip_modes) {
      uint64_t group_digest = 0;
      bool group_first = true;
      for (int controllers : controller_sweep) {
        auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog);
        const auto m = exp::run_experiment(
            cell_config(controllers, gossip, churn), policy, trace);
        Cell cell;
        cell.controllers = controllers;
        cell.gossip = gossip.name;
        cell.churn = churn;
        auto latencies = m.response_latencies();
        cell.p99_latency_s =
            latencies.empty() ? 0.0 : util::percentile(latencies, 99);
        cell.goodput = m.goodput();
        cell.stolen = m.control.total_stolen;
        cell.conflicts = m.control.total_conflicts();
        fill_staleness(m.control, cell);
        cell.digest = exp::run_metrics_digest(m);
        if (m.control.total_decisions() != m.sched_decisions) {
          conserved = false;
          std::cout << "WORK-CONSERVATION FAILURE: controllers="
                    << controllers << " gossip=" << gossip.name
                    << " churn=" << churn << ": control-plane decisions "
                    << m.control.total_decisions() << " != sched_decisions "
                    << m.sched_decisions << "\n";
        }
        // Gate 1 applies to the divergence-free regime only: stale/lossy
        // gossip is an opt-in accuracy trade, excluded from the identity
        // contract.
        if (gossip.name == "fresh") {
          if (group_first) {
            group_digest = cell.digest;
            group_first = false;
          } else if (cell.digest != group_digest) {
            digests_match = false;
          }
        }
        table.add_row({std::to_string(controllers), gossip.name,
                       Table::fmt(cell.p99_latency_s, 3),
                       Table::fmt(cell.goodput, 4), std::to_string(cell.stolen),
                       std::to_string(cell.conflicts),
                       Table::fmt(cell.staleness_mean_s, 3),
                       exp::digest_hex(cell.digest)});
        cells.push_back(cell);
      }
    }
    table.print(std::cout);
    std::cout << "\n";
  }

  write_json("BENCH_multi_controller.json", cells);
  std::cout << "Wrote BENCH_multi_controller.json (" << cells.size()
            << " cells)\n";

  if (!conserved) {
    std::cout << "\nWork-conservation gate: FAILED — see above.\n";
    return 1;
  }
  if (!digests_match) {
    std::cout << "\nDIGEST FAILURE: fresh-gossip runs diverged across "
                 "controller counts — catalog sharding, gossip caches or "
                 "work stealing leaked into engine behaviour.\n";
    return 1;
  }
  std::cout << "Expectation: fresh gossip is behaviour-neutral at any "
               "controller count; staleness and loss move conflicts and the "
               "stale-view age, and the reject-and-requeue path keeps "
               "goodput from collapsing.\n"
            << "Controller-count digest gate: digests identical across "
               "controllers (fresh gossip groups).\n";
  return 0;
}
