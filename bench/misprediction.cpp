// Misprediction resilience — the safety story behind the trust layer: Libra
// only harvests safely while its predictions are roughly right. This bench
// drives scripted prediction storms (multiplicative under-prediction bias,
// heteroscedastic noise, gradual drift, stuck-stale serving, full predictor
// outage) through a FaultyPredictor wrapped around the real profiler and
// compares three platforms on identical (trace, storm, seed):
//
//   Libra-NS     no safeguard (the paper's fragile ablation): a bad
//                prediction hurts for the invocation's whole run
//   Libra        the paper's full system (safeguard rescue, static margins,
//                in-place OOM restarts)
//   Libra+Trust  + per-function circuit breaker, adaptive margins, OOM
//                graceful degradation (re-dispatch on the capped OOM budget)
//
// Pass --smoke for the reduced CI variant (lighter trace, fewer levels).
// With --trace-out PREFIX the first determinism-replay run is captured as a
// Chrome trace + CSV; the replay check then doubles as proof that the
// observability session does not perturb the simulation.
#include <iostream>
#include <memory>
#include <vector>

#include "exp/cli.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "obs/obs_session.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;
using sim::fault::kAllFunctions;
using sim::fault::kNever;
using sim::fault::PredFaultKind;
using sim::fault::PredictionFault;

namespace {

struct StormLevel {
  std::string name;
  std::vector<PredictionFault> faults;
};

std::vector<StormLevel> storm_levels(bool smoke) {
  // Storms start shortly into the run so the first arrivals establish honest
  // baselines, then persist through the rest of the arrival window.
  const PredictionFault bias{PredFaultKind::kBias, kAllFunctions, 5.0, kNever,
                             0.15};
  const PredictionFault noise{PredFaultKind::kNoise, kAllFunctions, 5.0,
                              kNever, 1.1};
  const PredictionFault drift{PredFaultKind::kDrift, kAllFunctions, 5.0, 90.0,
                              0.12};
  const PredictionFault outage{PredFaultKind::kOutage, kAllFunctions, 5.0,
                               30.0, 1.0};
  const PredictionFault late_bias{PredFaultKind::kBias, kAllFunctions, 30.0,
                                  kNever, 0.18};
  if (smoke) {
    return {{"clean", {}},
            {"bias x0.15", {bias}},
            {"outage+bias", {outage, late_bias}}};
  }
  return {{"clean", {}},
          {"bias x0.15", {bias}},
          {"noise s=1.1", {noise}},
          {"drift ->x0.12", {drift}},
          {"outage+bias", {outage, late_bias}}};
}

sim::RunMetrics run_one(std::shared_ptr<const sim::FunctionCatalog> catalog,
                        const std::vector<PredictionFault>& faults,
                        bool with_trust, bool with_safeguard,
                        const std::vector<sim::Invocation>& trace,
                        obs::ObsSession* obs = nullptr) {
  exp::PlatformTuning tuning;
  auto policy = exp::make_faulty_libra(catalog, tuning, faults, with_trust,
                                       with_safeguard);
  sim::EngineConfig cfg = exp::multi_node_config();
  // The paper's platforms restart OOM kills in place; the trust platform
  // re-dispatches them at full user allocation on the capped OOM budget.
  cfg.oom_redispatch = with_trust;
  return exp::run_experiment(cfg, policy, trace, obs);
}

bool violates(const sim::RunMetrics& m, double p99_fault_free) {
  return m.p99_latency() > 1.5 * p99_fault_free + 1e-12 ||
         m.oom_terminal_losses > 0 || m.lost_invocations > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliOptions cli =
      exp::parse_cli_or_exit(argc, argv, "bench_misprediction");
  const bool smoke = cli.smoke;
  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace =
      workload::multi_trace(*catalog, /*rpm=*/smoke ? 60 : 120, /*seed=*/5);

  util::print_banner(
      std::cout,
      "Misprediction resilience — Libra-NS / Libra / Libra+Trust under "
      "prediction storms (4 nodes x 32c/32GB, identical storms + seed)");

  const auto levels = storm_levels(smoke);
  // Per-platform fault-free p99 anchors the slowdown bound: each platform is
  // held to 1.5x of ITS OWN clean latency.
  double p99_clean_ns = 0.0;
  double p99_clean_vanilla = 0.0;
  double p99_clean_trust = 0.0;

  int fragile_violations = 0;  // storm levels where Libra-NS or Libra breaks
  int trust_holds = 0;         // ... and Libra+Trust stays inside both bounds
  long ooms_ns = 0, ooms_vanilla = 0, ooms_trust = 0;
  for (const auto& level : levels) {
    auto ns = run_one(catalog, level.faults, /*with_trust=*/false,
                      /*with_safeguard=*/false, trace);
    auto vanilla = run_one(catalog, level.faults, /*with_trust=*/false,
                           /*with_safeguard=*/true, trace);
    auto trust = run_one(catalog, level.faults, /*with_trust=*/true,
                         /*with_safeguard=*/true, trace);
    if (level.name == "clean") {
      p99_clean_ns = ns.p99_latency();
      p99_clean_vanilla = vanilla.p99_latency();
      p99_clean_trust = trust.p99_latency();
    } else {
      ooms_ns += ns.oom_events;
      ooms_vanilla += vanilla.oom_events;
      ooms_trust += trust.oom_events;
    }
    std::vector<exp::NamedRun> runs;
    runs.push_back({"Libra-NS", std::move(ns)});
    runs.push_back({"Libra", std::move(vanilla)});
    runs.push_back({"Libra+Trust", std::move(trust)});
    exp::trust_table("storm level: " + level.name, runs).print(std::cout);
    std::cout << "\n";
    if (level.name == "clean") continue;
    const bool fragile_bad = violates(runs[0].metrics, p99_clean_ns) ||
                             violates(runs[1].metrics, p99_clean_vanilla);
    const bool trust_ok = !violates(runs[2].metrics, p99_clean_trust);
    if (fragile_bad) {
      ++fragile_violations;
      if (trust_ok) ++trust_holds;
    }
  }

  // Determinism: the heaviest composite storm must replay bit-identically
  // from the same (trace, storm script, seed). The first run carries the
  // observability session when one was requested, so the comparison also
  // certifies that tracing never perturbs the simulation.
  const auto& heavy = levels.back();
  std::unique_ptr<obs::ObsSession> obs_session;
  if (cli.obs_requested())
    obs_session = std::make_unique<obs::ObsSession>(exp::obs_config_from(cli));
  const auto a = run_one(catalog, heavy.faults, /*with_trust=*/true,
                         /*with_safeguard=*/true, trace, obs_session.get());
  const auto b = run_one(catalog, heavy.faults, /*with_trust=*/true,
                         /*with_safeguard=*/true, trace);
  const bool identical =
      a.p99_latency() == b.p99_latency() &&
      a.workload_completion_time() == b.workload_completion_time() &&
      a.oom_events == b.oom_events && a.oom_retries == b.oom_retries &&
      a.policy.trust_demotions == b.policy.trust_demotions &&
      a.policy.trust_promotions == b.policy.trust_promotions;

  std::cout << "Expectation: wherever a storm pushes Libra-NS or Libra past "
               "1.5x of its own\nfault-free p99 (or costs it invocations), "
               "the trust circuit breaker + adaptive\nmargins + OOM "
               "re-dispatch keep Libra+Trust inside both bounds; replay is\n"
               "bit-identical.\n"
            << "Measured: the fragile platforms violated on "
            << fragile_violations << "/" << levels.size() - 1
            << " storm levels; Libra+Trust held on " << trust_holds << "/"
            << fragile_violations << " of those;\nOOM kills across storms: "
            << ooms_ns << " (Libra-NS) / " << ooms_vanilla << " (Libra) / "
            << ooms_trust << " (Libra+Trust, 0 terminal); replay "
            << (identical ? "bit-identical" : "DIVERGED") << ".\n";
  if (obs_session && !exp::export_obs(*obs_session, cli)) return 1;
  return identical ? 0 : 1;
}
