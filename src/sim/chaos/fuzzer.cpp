#include "sim/chaos/fuzzer.h"

#include <cstddef>

namespace libra::chaos {

namespace {

/// Node classes of the heterogeneity matrix: big, small, CPU-skewed and
/// memory-skewed shapes. Every class keeps >= 12 cores so even a 2-shard
/// slice (>= 6 cores / 4 GB) comfortably fits the synthetic catalog's
/// 4-core / 2-GB allocation cap — scenarios never contain never-placeable
/// invocations, which would muddy the loss-accounting oracle.
const sim::Resources kNodeClasses[] = {
    {32.0, 32768.0},  // big
    {12.0, 8192.0},   // small
    {24.0, 8192.0},   // CPU-skewed
    {16.0, 49152.0},  // memory-skewed
};
constexpr size_t kNumNodeClasses = sizeof(kNodeClasses) / sizeof(kNodeClasses[0]);

sim::NodeId pick_node(util::Rng& r, size_t num_nodes) {
  return static_cast<sim::NodeId>(
      r.uniform_int(0, static_cast<int64_t>(num_nodes) - 1));
}

sim::fault::FaultWindow draw_window(util::Rng& r, size_t num_nodes,
                                    double duration) {
  sim::fault::FaultWindow w;
  w.node = r.bernoulli(0.3) ? sim::fault::kAllNodes : pick_node(r, num_nodes);
  w.from = r.uniform(0.0, duration);
  w.until = w.from + r.uniform(1.0, 20.0);
  return w;
}

}  // namespace

Scenario ScenarioFuzzer::next() {
  util::Rng r = base_.fork(iter_);
  ++iter_;

  Scenario sc;
  sc.seed = r.next_u64();

  // ---- Workload ----
  sc.gen.functions = static_cast<int>(r.uniform_int(8, 48));
  sc.gen.rpm = r.uniform(300.0, 1800.0);
  sc.gen.duration = r.uniform(20.0, 60.0);
  sc.gen.seed = r.next_u64();
  sc.gen.zipf_s = r.uniform(0.0, 1.2);
  sc.gen.diurnal_amplitude = r.uniform(0.0, 0.8);
  sc.gen.diurnal_period = r.uniform(60.0, 600.0);
  sc.gen.diurnal_phase = r.uniform(0.0, 6.28);
  sc.gen.burst_episodes_per_min = r.uniform(0.0, 6.0);
  sc.gen.burst_size_mean = r.uniform(1.0, 10.0);
  sc.gen.burst_spacing = r.uniform(0.01, 0.2);
  sc.gen.mean_work = r.uniform(0.2, 2.0);

  // ---- Cluster shape ----
  const int num_nodes = static_cast<int>(r.uniform_int(2, 5));
  for (int n = 0; n < num_nodes; ++n) {
    const size_t cls = static_cast<size_t>(
        r.uniform_int(0, static_cast<int64_t>(kNumNodeClasses) - 1));
    sc.node_capacities.push_back(kNodeClasses[cls]);
  }
  sc.num_shards = static_cast<int>(r.uniform_int(1, 2));

  // ---- Control plane ----
  // Most scenarios run multi-controller; a third opt into the divergence
  // knobs (periodic refresh or partial fan-out) whose behaviour the digest
  // gates exclude but the accounting/audit oracle still covers.
  sc.num_controllers = static_cast<int>(r.uniform_int(1, 4));
  if (r.bernoulli(0.3)) sc.gossip_period = r.uniform(0.5, 5.0);
  if (sc.num_controllers > 1 && r.bernoulli(0.3))
    sc.gossip_fanout =
        static_cast<int>(r.uniform_int(1, sc.num_controllers - 1));
  sc.controllers_b = static_cast<int>(r.uniform_int(2, 4));

  // ---- Scripted outages (spot + hard crashes) ----
  const int num_outages = static_cast<int>(r.uniform_int(0, 2));
  for (int i = 0; i < num_outages; ++i) {
    sim::fault::NodeOutage o;
    o.node = pick_node(r, sc.node_capacities.size());
    o.down_at = r.uniform(1.0, sc.gen.duration);
    o.up_at = r.bernoulli(0.1) ? sim::fault::kNever
                               : o.down_at + r.uniform(1.0, 30.0);
    o.spot = r.bernoulli(0.5);
    sc.plan.outages.push_back(o);
  }
  sc.spot_drain_notice = r.bernoulli(0.5) ? r.uniform(0.5, 5.0) : 0.0;

  // ---- Blackout windows ----
  const int pings = static_cast<int>(r.uniform_int(0, 2));
  for (int i = 0; i < pings; ++i)
    sc.plan.ping_blackouts.push_back(
        draw_window(r, sc.node_capacities.size(), sc.gen.duration));
  if (r.bernoulli(0.5))
    sc.plan.cold_start_failures.push_back(
        draw_window(r, sc.node_capacities.size(), sc.gen.duration));
  if (r.bernoulli(0.5))
    sc.plan.monitor_blackouts.push_back(
        draw_window(r, sc.node_capacities.size(), sc.gen.duration));

  // ---- Misprediction storm ----
  const int storms = static_cast<int>(r.uniform_int(0, 3));
  for (int i = 0; i < storms; ++i) {
    sim::fault::PredictionFault p;
    p.kind = static_cast<sim::fault::PredFaultKind>(r.uniform_int(
        0, static_cast<int>(sim::fault::PredFaultKind::kOutage)));
    p.func = r.bernoulli(0.3)
                 ? sim::fault::kAllFunctions
                 : static_cast<sim::FunctionId>(
                       r.uniform_int(0, sc.gen.functions - 1));
    p.from = r.uniform(0.0, sc.gen.duration);
    // Always finite (kDrift requires it) and long enough to matter.
    p.until = p.from + r.uniform(5.0, 30.0);
    switch (p.kind) {
      case sim::fault::PredFaultKind::kBias:
      case sim::fault::PredFaultKind::kDrift:
        p.severity = r.uniform(0.3, 3.0);
        break;
      case sim::fault::PredFaultKind::kNoise:
        p.severity = r.uniform(0.05, 1.0);
        break;
      case sim::fault::PredFaultKind::kStuck:
      case sim::fault::PredFaultKind::kOutage:
        p.severity = 1.0;
        break;
    }
    sc.plan.prediction_faults.push_back(p);
  }

  // ---- Probabilistic churn profile (half the scenarios are script-only) ----
  sc.profile.seed = r.next_u64();
  if (r.bernoulli(0.5)) {
    sc.profile.node_mtbf = r.bernoulli(0.3) ? r.uniform(40.0, 200.0) : 0.0;
    sc.profile.node_mttr = r.uniform(2.0, 20.0);
    sc.profile.ping_drop_prob = r.uniform(0.0, 0.2);
    sc.profile.ping_delay_prob = r.uniform(0.0, 0.2);
    sc.profile.ping_delay_mean = r.uniform(0.1, 1.0);
    sc.profile.cold_start_fail_prob = r.uniform(0.0, 0.1);
    sc.profile.monitor_skip_prob = r.uniform(0.0, 0.2);
    sc.profile.gossip_drop_prob = r.uniform(0.0, 0.3);
    sc.profile.gossip_delay_prob = r.uniform(0.0, 0.3);
    sc.profile.gossip_delay_mean = r.uniform(0.1, 1.0);
  } else {
    sc.profile.node_mtbf = 0.0;
    sc.profile.ping_drop_prob = 0.0;
    sc.profile.ping_delay_prob = 0.0;
    sc.profile.cold_start_fail_prob = 0.0;
    sc.profile.monitor_skip_prob = 0.0;
    sc.profile.gossip_drop_prob = 0.0;
    sc.profile.gossip_delay_prob = 0.0;
  }

  // ---- Multi-tenancy ----
  sc.num_tenants = static_cast<int>(r.uniform_int(1, 3));
  if (r.bernoulli(0.5)) {
    for (int t = 0; t < sc.num_tenants; ++t) {
      if (!r.bernoulli(0.7)) continue;
      sc.tenant_quotas[t] = {r.uniform(2.0, 16.0), r.uniform(512.0, 8192.0)};
    }
  }

  sc.validate();  // generator bugs surface here, not deep in the oracle
  return sc;
}

}  // namespace libra::chaos
