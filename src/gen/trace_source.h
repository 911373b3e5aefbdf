// Pull-based invocation stream: the seam between workload generation and the
// engine's streaming admission loop. A TraceSource yields invocations one at
// a time in nondecreasing arrival order, so the engine can admit work lazily
// and keep live memory proportional to the in-flight count instead of the
// trace length (10M+ invocations never exist simultaneously).
//
// Header-only on purpose: `sim` (Engine::run, the engine's one run path) and
// `workload` (the MaterializedSource adapter) both consume the interface
// without linking the generator library, keeping the dependency graph
// acyclic: sim <- gen -> workload, exp -> everything.
#pragma once

#include <cstddef>
#include <optional>

#include "sim/invocation.h"
#include "sim/types.h"

namespace libra::gen {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Arrival time of the next invocation, or nullopt when the stream is
  /// exhausted. Repeated calls without next() return the same value; values
  /// are nondecreasing across next() calls.
  virtual std::optional<sim::SimTime> peek_arrival() = 0;

  /// Materializes and consumes the next invocation (ids must be unique,
  /// arrival equal to the last peek). Undefined when exhausted.
  virtual sim::Invocation next() = 0;

  /// Upper bound on the last arrival time, known before the run starts.
  /// Anchors the fault-injection churn horizon (horizon() +
  /// EngineConfig::churn_horizon_pad); a MaterializedSource reports the
  /// exact last arrival.
  virtual sim::SimTime horizon() const = 0;

  /// Expected number of invocations (0 = unknown); a sizing hint for audit
  /// sampling rates and progress reporting, never a contract.
  virtual size_t size_hint() const { return 0; }
};

}  // namespace libra::gen
