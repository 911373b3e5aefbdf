// Cross-layer invariant auditor (dynamic prong of the concurrency-correctness
// analysis layer). Observes the simulation through two seams and re-derives
// the conservation laws the rest of the code is supposed to uphold:
//
//   core::PoolEventListener — after every harvest-pool mutation, re-checks
//   per-source conservation (idle + outstanding grants == harvested volume)
//   from a consistent DebugState snapshot.
//
//   sim::EngineAuditHook — after every dispatched engine event (sampled via
//   every_n for large traces), sweeps the whole cluster: every placed
//   invocation is alive and is listed on the node it references; each
//   node's allocated totals equal the sum of its placed invocations'
//   reservations (user_alloc + probe_extra); no pool entry or grant
//   references a completed source, and no grant a borrower that is gone; a
//   down node's pool is empty; no pool entry is sourced from a function the
//   trust circuit breaker has quarantined.
//
// A sweep is one walk over live state — the engine's per-node placed lists,
// the policy's node-indexed pool table and raw-prediction stash — with no
// sort, hash map or heap allocation once its reused scratch (one pool
// snapshot, one per-entry lent vector) has grown to the largest pool.
//
// A violation aborts through LIBRA_AUDIT_CHECK with a structured diagnostic
// carrying the engine event id and sim time (stamped by Engine::notify_audit
// before this hook runs), unless a test installed a failure handler.
#pragma once

#include <vector>

#include "core/libra_policy.h"
#include "core/pool_event.h"
#include "sim/audit_hook.h"
#include "sim/policy.h"

namespace libra::analysis {

struct InvariantAuditorConfig {
  /// Full cluster sweeps run on every n-th engine event (1 = every event).
  /// Pool-mutation conservation checks always run regardless.
  int every_n = 1;
};

class InvariantAuditor final : public core::PoolEventListener,
                               public sim::EngineAuditHook {
 public:
  explicit InvariantAuditor(InvariantAuditorConfig cfg = {});

  /// Attaches this auditor to the policy's pools (current and future) so
  /// pool mutations are observed. Also remembered for cluster sweeps; may be
  /// nullptr when only engine-side checks are wanted.
  void attach_policy(core::LibraPolicy* policy);

  // core::PoolEventListener
  void on_pool_event(const core::PoolEvent& ev) override;

  // sim::EngineAuditHook
  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override;

  struct Stats {
    long pool_events = 0;    // pool mutations observed
    long engine_events = 0;  // engine events observed
    long sweeps = 0;         // full cluster sweeps actually run
    long recycle_checks = 0; // recycle events audited
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Per-source conservation over snap_, which the caller just filled from
  /// one pool: entries strictly ascending by source, every grant
  /// non-negative and traced to an entry, idle + lent == harvested.
  void check_conservation(const char* origin);
  void sweep(sim::EngineApi& api, const char* what);
  /// Recycle-safety check (streaming runs): a record about to be returned to
  /// the engine's free list must be terminal and unreferenced — not placed,
  /// not a pool source or borrower. The terminal check runs on every recycle
  /// event; the reference scans follow the every_n sampling like sweeps.
  void check_recycle(sim::EngineApi& api, sim::InvocationId id, bool sampled);

  InvariantAuditorConfig cfg_;
  core::LibraPolicy* policy_ = nullptr;
  Stats stats_;
  /// Scratch reused by every check (capacity only grows): the snapshot of
  /// the pool under audit, and its per-entry lent totals (index-aligned
  /// with snap_.entries).
  core::HarvestResourcePool::DebugState snap_;
  std::vector<sim::Resources> lent_;
};

}  // namespace libra::analysis
