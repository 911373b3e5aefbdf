// Shared experiment harness: the three testbed configurations of §8.2.1 and
// a one-call runner that wires a policy + trace into the engine.
#pragma once

#include <memory>
#include <vector>

#include "gen/trace_source.h"
#include "sim/engine.h"
#include "sim/function.h"
#include "sim/metrics.h"
#include "sim/policy.h"

namespace libra::obs {
class ObsSession;
}

namespace libra::exp {

/// Single-node testbed: one worker with 72 cores / 72 GB (§8.2.1).
sim::EngineConfig single_node_config();

/// Multi-node testbed: four workers with 32 cores / 32 GB each.
sim::EngineConfig multi_node_config(int num_shards = 2);

/// Jetstream testbed: `nodes` workers with 24 cores / 24 GB each and the
/// requested number of decentralized scheduler shards (§8.5).
sim::EngineConfig jetstream_config(int nodes, int num_shards);

/// Runs one experiment over a pre-built trace (sorted by arrival): wraps it
/// in a workload::MaterializedSource and calls the source overload below.
sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               std::vector<sim::Invocation> trace,
                               obs::ObsSession* obs = nullptr);

/// Runs one experiment to completion, pulling the workload incrementally
/// from `source` (gen::SyntheticSource, workload::MaterializedSource, ...),
/// under the invariant auditor unless cfg.audit_hook is already set. The
/// auditor's sampling keys off source.size_hint(). A non-null `obs` session
/// is interposed on the engine-audit, pool-event and policy-event seams; it
/// forwards every event to the auditor (audit coverage is unchanged) and
/// never mutates simulation state, so the returned RunMetrics are
/// bit-identical with a session or without one. finish() is called on
/// the session before returning.
sim::RunMetrics run_experiment(const sim::EngineConfig& cfg,
                               std::shared_ptr<sim::Policy> policy,
                               gen::TraceSource& source,
                               obs::ObsSession* obs = nullptr);

}  // namespace libra::exp
