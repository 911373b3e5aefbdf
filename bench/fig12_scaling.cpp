// Figure 12 — scalability of the decentralized sharding schedulers on the
// Jetstream-like cluster: (a) strong scaling (1000 concurrent invocations,
// 10..50 nodes, 1..4 schedulers), (b) weak scaling (20 invocations per
// node), (c) real measured scheduling overhead (< 1 ms) on 50 nodes, and
// (d) one 4-shard burst timed end to end, whose simulated latency and
// utilization are the deterministic regression rows.
//
// --smoke shrinks the sweeps for CI; with --obs / --trace-out /
// --trace-ndjson the run of section (d) is repeated under an observability
// session (its summary includes the per-shard decision balance), which must
// not move its digest (exit 1 if it does). With --json-out PATH the section
// (c) overhead quantiles and the section (d) latency / utilization rows are
// merged into a BenchArtifact (BENCH_hotpath.json in CI) for
// tools/bench_diff.
#include <chrono>
#include <iostream>
#include <memory>

#include "exp/bench_artifact.h"
#include "exp/cli.h"
#include "exp/digest.h"
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
  const exp::CliOptions cli = exp::parse_cli(argc, argv);
  if (cli.help) {
    std::cout << "bench_fig12_scaling [options]\n" << exp::cli_usage();
    return 0;
  }

  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());

  util::print_banner(std::cout,
                     "Figure 12 — scalability (Jetstream-like, 24c/24GB "
                     "nodes)");

  const std::vector<int> node_sweep =
      cli.smoke ? std::vector<int>{10, 20} : std::vector<int>{10, 20, 30,
                                                              40, 50};
  const size_t burst_size = cli.smoke ? 200 : 1000;

  // (a) Strong scaling: one burst, nodes x shards.
  Table strong("Fig 12(a) — strong scaling: completion time (s), " +
               std::to_string(burst_size) + " concurrent invocations");
  strong.set_header({"nodes", "1 scheduler", "2 schedulers", "4 schedulers"});
  const auto burst = workload::burst_trace(*catalog, burst_size, 5);
  for (int nodes : node_sweep) {
    std::vector<std::string> row = {std::to_string(nodes)};
    for (int shards : {1, 2, 4}) {
      auto policy = exp::make_scheduler_platform(
          exp::SchedulerKind::kCoverage, catalog);
      auto cfg = exp::jetstream_config(nodes, shards);
      auto m = exp::run_experiment(cfg, policy, burst);
      row.push_back(Table::fmt(m.workload_completion_time(), 1));
    }
    strong.add_row(std::move(row));
  }
  strong.print(std::cout);

  // (b) Weak scaling: 20 invocations per node.
  Table weak("Fig 12(b) — weak scaling: completion time (s), 20 invocations "
             "per node, 4 schedulers");
  weak.set_header({"nodes", "invocations", "completion(s)"});
  for (int nodes : node_sweep) {
    const auto trace = workload::burst_trace(
        *catalog, static_cast<size_t>(20 * nodes), 7);
    auto policy =
        exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog);
    auto m = exp::run_experiment(exp::jetstream_config(nodes, 4), policy,
                                 trace);
    weak.add_row({std::to_string(nodes), std::to_string(trace.size()),
                  Table::fmt(m.workload_completion_time(), 1)});
  }
  weak.print(std::cout);

  // (c) Real scheduling overhead with 4 schedulers.
  const int overhead_nodes = cli.smoke ? 20 : 50;
  Table delay("Fig 12(c) — measured scheduling overhead (real wall clock, " +
              std::to_string(overhead_nodes) + " nodes, 4 schedulers)");
  delay.set_header({"invocations", "avg (us)", "p99 (us)", "< 1 ms?"});
  const std::vector<size_t> overhead_counts =
      cli.smoke ? std::vector<size_t>{200}
                : std::vector<size_t>{200, 400, 600, 800, 1000};
  exp::BenchArtifact artifact;
  for (size_t count : overhead_counts) {
    auto cfg = exp::jetstream_config(overhead_nodes, 4);
    cfg.measure_real_sched_overhead = true;
    auto policy =
        exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog);
    auto m = exp::run_experiment(cfg, policy,
                                 workload::burst_trace(*catalog, count, 9));
    auto samples = m.sched_overhead_seconds;
    const double avg_us = util::mean(samples) * 1e6;
    const double p99_us = util::percentile(samples, 99) * 1e6;
    delay.add_row({std::to_string(count), Table::fmt(avg_us, 1),
                   Table::fmt(p99_us, 1), avg_us < 1000 ? "yes" : "NO"});
    if (count == overhead_counts.back()) {
      // ns/decision rows from the largest burst: the steady-state number.
      artifact.add("fig12_sched_overhead_avg_ns", avg_us * 1e3, "ns");
      artifact.add("fig12_sched_overhead_p99_ns", p99_us * 1e3, "ns");
    }
  }
  delay.print(std::cout);

  // (d) One 4-shard burst, timed end to end.
  const int scale_nodes = cli.smoke ? 20 : 50;
  const size_t scale_burst = cli.smoke ? 400 : 1000;
  Table scale("Fig 12(d) — one burst end to end (" +
              std::to_string(scale_nodes) + " nodes, 4 shards, " +
              std::to_string(scale_burst) + " invocations)");
  scale.set_header({"wall clock (ms)", "completion (s)", "p99 (s)", "digest"});
  const auto scale_trace = workload::burst_trace(*catalog, scale_burst, 11);
  const auto scale_cfg = exp::jetstream_config(scale_nodes, 4);
  uint64_t scale_digest = 0;
  {
    auto policy =
        exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog);
    const auto start = std::chrono::steady_clock::now();
    auto m = exp::run_experiment(scale_cfg, policy, scale_trace);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    scale_digest = exp::run_metrics_digest(m);
    scale.add_row({Table::fmt(ms, 1),
                   Table::fmt(m.workload_completion_time(), 1),
                   Table::fmt(m.p99_latency(), 1),
                   exp::digest_hex(scale_digest)});
    // Simulated-outcome integrals from a deterministic run: they only move
    // when behavior changes, so bench_diff flags them at zero tolerance
    // drift rather than runner noise.
    artifact.add("fig12_p99_latency_s", m.p99_latency(), "s");
    artifact.add("fig12_avg_cpu_utilization", m.avg_cpu_utilization(),
                 "fraction", "higher");
    artifact.add("fig12_avg_mem_utilization", m.avg_mem_utilization(),
                 "fraction", "higher");
    artifact.add("fig12_completion_time_s", m.workload_completion_time(),
                 "s");
  }
  scale.print(std::cout);

  if (!cli.json_out.empty()) {
    std::string error;
    if (!exp::merge_bench_artifact(cli.json_out, artifact, &error)) {
      std::cerr << "bench artifact export failed: " << error << "\n";
      return 1;
    }
    std::cout << "merged " << artifact.rows.size() << " perf rows into "
              << cli.json_out << "\n";
  }

  // Observability capture on a separate, untimed run of the same config, so
  // the recording cost never reaches the wall clock above. Observability
  // must not perturb the run: the digest has to match.
  std::unique_ptr<obs::ObsSession> obs_session;
  if (cli.obs_requested()) {
    auto policy =
        exp::make_scheduler_platform(exp::SchedulerKind::kCoverage, catalog);
    obs_session = std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
    auto m =
        exp::run_experiment(scale_cfg, policy, scale_trace, obs_session.get());
    if (exp::run_metrics_digest(m) != scale_digest) {
      std::cout << "\nOBSERVABILITY FAILURE: the observed run's RunMetrics "
                   "digest differs from the plain run's.\n";
      return 1;
    }
  }

  std::cout << "\nPaper: completion falls with more schedulers/nodes, weak "
               "scaling stays flat, overhead stays under 1 ms.\n";

  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return 0;
}
