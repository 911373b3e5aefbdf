// Seam between the engine's event loop and its observers: the invariant
// auditor (src/analysis) and the observability session (src/obs). The engine
// cannot depend on either layer, so it only knows this interface: after fully
// dispatching an event it hands the hook a view of itself plus a small
// structured description of what happened. The description carries an enum
// kind, so an observer dispatches with a switch and never compares strings;
// diagnostics and traces print the kind's name (engine_event_name).
// Production runs leave the hook unset — the cost is a null check per event.
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace libra::sim {

class EngineApi;

/// What a dispatched engine event was about.
enum class EngineEventKind : uint8_t {
  kArrival,           // the front end took the invocation
  kPlacement,         // a decision reserved a node
  kPark,              // a decision found no node; the invocation waits
  kRequeue,           // a fault backoff expired; back on its shard queue
  kColdStartFailure,  // the chosen node failed to start the container
  kExecStart,
  kMonitor,
  kOom,
  kCompletion,
  kRecycle,  // a terminal record is about to return to the free list
  kHealthPing,
  kNodeDown,
  kNodeUp,
  kDrainNotice,
  kRunEnd,  // after the straggler sweep: closes the run
};

/// The kind's name, as diagnostics and traces print it.
constexpr const char* engine_event_name(EngineEventKind kind) {
  switch (kind) {
    case EngineEventKind::kArrival: return "arrival";
    case EngineEventKind::kPlacement: return "placement";
    case EngineEventKind::kPark: return "park";
    case EngineEventKind::kRequeue: return "requeue";
    case EngineEventKind::kColdStartFailure: return "cold_start_failure";
    case EngineEventKind::kExecStart: return "exec_start";
    case EngineEventKind::kMonitor: return "monitor";
    case EngineEventKind::kOom: return "oom";
    case EngineEventKind::kCompletion: return "completion";
    case EngineEventKind::kRecycle: return "recycle";
    case EngineEventKind::kHealthPing: return "health_ping";
    case EngineEventKind::kNodeDown: return "node_down";
    case EngineEventKind::kNodeUp: return "node_up";
    case EngineEventKind::kDrainNotice: return "drain_notice";
    case EngineEventKind::kRunEnd: return "run_end";
  }
  return "unknown";
}

/// One fully dispatched engine event. Observers dispatch on `kind` and label
/// diagnostics and traces with engine_event_name(kind). `id` is the engine's
/// global dispatch counter (matches the audit-context stamp in diagnostics).
/// The subject fields identify which invocation / node the event was about,
/// when that is meaningful — observability consumers stamp spans and point
/// events with them; the auditor ignores them.
struct EngineEvent {
  EngineEventKind kind = EngineEventKind::kArrival;
  long id = 0;
  /// Subject invocation, or kNoInvocation for cluster-level events
  /// (health_ping, node_down, node_up).
  InvocationId inv = -1;
  /// Subject node, or kNoNode when the event is not tied to one.
  NodeId node = kNoNode;
};

inline constexpr InvocationId kNoInvocation = -1;

class EngineAuditHook {
 public:
  virtual ~EngineAuditHook() = default;

  /// Called after the engine finishes dispatching one event, with all state
  /// transitions for that event applied.
  virtual void on_engine_event(EngineApi& api, const EngineEvent& ev) = 0;
};

}  // namespace libra::sim
