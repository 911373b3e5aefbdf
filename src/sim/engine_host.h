// The narrow seam between the engine's three layers (ClusterState,
// InvocationLifecycle, ShardedController) and the event-loop glue that owns
// them. Each layer holds an EngineHost& and reaches everything it needs —
// the clock/queue, the policy, shared metrics, the other layers — through
// this interface, so no layer includes engine.h and the dependency graph
// stays acyclic: layers -> EngineHost <- Engine.
#pragma once

#include "sim/engine_config.h"
#include "sim/event_queue.h"
#include "sim/invocation.h"
#include "sim/metrics.h"
#include "util/dense_id_map.h"

namespace libra::sim {

/// The engine's invocation store: a flat, generation-checked slab keyed by
/// id (DESIGN.md §5l) — find() is two array loads, recycled slots come back
/// through a free list, and live-record iteration walks contiguous memory.
using InvocationStore = util::DenseIdMap<InvocationId, Invocation>;

class EngineApi;
class Policy;
class ClusterState;
class InvocationLifecycle;
class ShardedController;
namespace ctrl {
class ControlPlane;
}
namespace fault {
class FaultInjector;
}

class EngineHost {
 public:
  virtual ~EngineHost() = default;

  virtual EventQueue& queue() = 0;
  virtual const EngineConfig& config() const = 0;
  virtual Policy& policy() = 0;
  virtual EngineApi& api() = 0;
  virtual RunMetrics& metrics() = 0;

  virtual ClusterState& cluster() = 0;
  virtual InvocationLifecycle& lifecycle() = 0;
  virtual ShardedController& controller() = 0;
  /// Multi-controller control plane (src/sim/ctrl): catalog sharding across
  /// N front ends, gossip-fed pool-view caches, cross-controller stealing.
  virtual ctrl::ControlPlane& control() = 0;

  virtual Invocation& invocation(InvocationId id) = 0;
  /// Non-throwing lookup: nullptr when the id is unknown — e.g. recycled
  /// after its terminal event in a streaming run. Epoch/generation-guarded
  /// continuations use this: a miss means the guard would have rejected the
  /// event anyway, so they return silently.
  virtual Invocation* find_invocation(InvocationId id) = 0;
  /// The flat record store itself, for layers that scan live records
  /// (for_each walks slot order; order-sensitive consumers collect ids and
  /// sort, exactly as they did when this seam exposed an unordered_map).
  virtual InvocationStore& invocations_store() = 0;
  /// Marks a TERMINAL invocation's record for free-list recycling. Deferred:
  /// the engine drains requests only between events, so `Invocation&`
  /// references held by the current callback chain stay valid. No-op unless
  /// EngineConfig::recycle_records is on.
  virtual void request_recycle(InvocationId id) = 0;

  /// True while fault injection is configured for this run (scripted plan or
  /// probabilistic profile). Gates the failure-handling paths so failure-free
  /// runs keep the original semantics.
  virtual bool fault_active() const = 0;
  /// The injector for this run; never null after run() starts when
  /// fault_active() is true.
  virtual fault::FaultInjector* fault() = 0;

  /// Marks one invocation terminal (completed or lost). The run ends when
  /// every traced invocation is terminal.
  virtual void mark_terminal() = 0;
  /// True while at least one traced invocation is not yet terminal.
  virtual bool run_live() const = 0;

  /// Forwards an engine-level event to the invariant auditor (no-op when no
  /// audit hook is configured).
  virtual void notify_audit(const char* what, InvocationId inv = kNoInvocation,
                            NodeId node = kNoNode) = 0;
};

}  // namespace libra::sim
