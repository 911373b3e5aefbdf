#include "exp/runner.h"

#include "analysis/invariant_auditor.h"
#include "core/libra_policy.h"
#include "obs/obs_session.h"
#include "workload/materialized_source.h"

namespace libra::exp {

namespace {
constexpr double kGb = 1024.0;  // MB per GB
}

sim::EngineConfig single_node_config() {
  sim::EngineConfig cfg;
  cfg.node_capacities = {sim::Resources{72.0, 72.0 * kGb}};
  cfg.num_shards = 1;
  return cfg;
}

sim::EngineConfig multi_node_config(int num_shards) {
  sim::EngineConfig cfg;
  cfg.node_capacities.assign(4, sim::Resources{32.0, 32.0 * kGb});
  cfg.num_shards = num_shards;
  return cfg;
}

sim::EngineConfig jetstream_config(int nodes, int num_shards) {
  sim::EngineConfig cfg;
  cfg.node_capacities.assign(static_cast<size_t>(nodes),
                             sim::Resources{24.0, 24.0 * kGb});
  cfg.num_shards = num_shards;
  return cfg;
}

sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               std::vector<sim::Invocation> trace,
                               obs::ObsSession* obs) {
  workload::MaterializedSource source(std::move(trace));
  return run_experiment(cfg, std::move(policy), source, obs);
}

sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               gen::TraceSource& source,
                               obs::ObsSession* obs) {
  // Every experiment runs under the invariant auditor unless the caller
  // installed their own hook. A sampled event checks only what changed since
  // the previous check — the nodes it touched and their pools, the ids it
  // finalized — and a full sweep runs every 4096 events and at run_end
  // (DESIGN.md §5d). Small workloads check every event; large ones sample
  // every 64th, because even the incremental check measured too costly per
  // event on a 50-node stream (the always-on pool-internal audits cover
  // every mutation either way). size_hint() is 0 for unsized generators,
  // which keeps the every-event check — generator smoke runs are small.
  const size_t workload_size = source.size_hint();
  analysis::InvariantAuditorConfig audit_cfg;
  // Planet-scale streaming runs (10M+ invocations) stretch the sampling
  // further: a check covers everything marked since the previous one, and
  // at that scale tens of thousands of invocations are in flight at once.
  audit_cfg.every_n =
      workload_size <= 4096 ? 1 : (workload_size <= 1000000 ? 64 : 4096);
  analysis::InvariantAuditor auditor(audit_cfg);
  auto* libra = dynamic_cast<core::LibraPolicy*>(policy.get());
  auditor.attach_policy(libra);

  sim::EngineConfig run_cfg = cfg;
  if (run_cfg.audit_hook == nullptr) run_cfg.audit_hook = &auditor;

  if (obs != nullptr) {
    // The session interposes in front of whatever hook/listener is already
    // installed and forwards every event, so the auditor sees the run
    // unchanged whether observability is on or not.
    obs->chain_engine_hook(run_cfg.audit_hook);
    run_cfg.audit_hook = obs;
    if (libra != nullptr) {
      obs->chain_pool_listener(&auditor);  // attach_policy installed it
      libra->set_pool_listener(obs);
      libra->set_policy_listener(obs);
    }
  }

  sim::Engine engine(run_cfg, std::move(policy));
  sim::RunMetrics metrics = engine.run(source);
  if (obs != nullptr) obs->finish(metrics);
  return metrics;
}

}  // namespace libra::exp
