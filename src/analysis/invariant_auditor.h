// Cross-layer invariant auditor (dynamic prong of the concurrency-correctness
// analysis layer). Observes the simulation through two seams and re-derives
// the conservation laws the rest of the code is supposed to uphold:
//
//   core::PoolEventListener — after every harvest-pool mutation, re-checks
//   per-source conservation (idle + outstanding grants == harvested volume)
//   from a consistent DebugState snapshot, and marks the pool's node.
//
//   sim::EngineAuditHook — after every sampled engine event (every_n), checks
//   what changed since the previous check: each node the event touched
//   (EngineApi::touched_nodes — every Node mutator and placed-list edit marks
//   one) gets its accounting re-derived — every placed invocation is alive
//   and references that node, allocated totals equal the sum of placed
//   reservations (user_alloc + probe_extra), a down node holds nothing, no
//   free shard slice exceeds the capacity index's root — and its pool
//   re-checked: no entry or grant references a completed source, no
//   grant a borrower that is gone, a down node's pool is empty, no entry is
//   sourced from a function the trust circuit breaker has quarantined. Each
//   id finalized since the previous check (EngineApi::finalized_ids) must
//   have left the policy's raw-prediction stash. When a function was just
//   quarantined (TrustManager::quarantine_transitions moved), or a pool
//   event carried no node, every pool is re-checked. An event that changed
//   nothing costs O(1).
//
// The full sweep — every node, every pool, the whole stash, the capacity
// index's roots against the nodes' largest free slices, bit for bit, and the
// occupancy bits of the policy's snapshots and of every controller cache
// against the views they summarize — stays as the backstop: it runs every
// kFullSweepPeriod engine events and on the engine's closing "run_end"
// event, so a violation planted without going through any mutation site is
// still caught. Both paths share check_node / check_pool, so their
// diagnostics are byte-identical. Neither sorts a copy of the placed set,
// builds a hash map or allocates once the reused buffers (one pool
// snapshot, one per-entry lent vector, the pending marks) have grown.
//
// A violation aborts through LIBRA_AUDIT_CHECK with a structured diagnostic
// carrying the engine event id and sim time (stamped by Engine::notify_audit
// before this hook runs), unless a test installed a failure handler.
#pragma once

#include <vector>

#include "core/libra_policy.h"
#include "core/pool_event.h"
#include "sim/audit_hook.h"
#include "sim/node.h"
#include "sim/policy.h"

namespace libra::analysis {

struct InvariantAuditorConfig {
  /// A check runs on every n-th engine event (1 = every event) and covers
  /// everything marked since the previous check. Pool-mutation conservation
  /// checks, the backstop and the run_end sweep run regardless.
  int every_n = 1;
};

class InvariantAuditor final : public core::PoolEventListener,
                               public sim::EngineAuditHook {
 public:
  /// Engine events between backstop full sweeps.
  static constexpr long kFullSweepPeriod = 4096;

  explicit InvariantAuditor(InvariantAuditorConfig cfg = {});

  /// Attaches this auditor to the policy's pools (current and future) so
  /// pool mutations are observed. Also remembered for cluster checks; may be
  /// nullptr when only engine-side checks are wanted.
  void attach_policy(core::LibraPolicy* policy);

  // core::PoolEventListener
  void on_pool_event(const core::PoolEvent& ev) override;

  // sim::EngineAuditHook
  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override;

  /// The full check: every node, every pool and the whole raw-prediction
  /// stash, plus the ids finalized since the previous check; clears the
  /// pending marks. The backstop and run_end run it; public so tests can
  /// hold the incremental check against it.
  void sweep(sim::EngineApi& api, const char* what);

  struct Stats {
    long pool_events = 0;    // pool mutations observed
    long engine_events = 0;  // engine events observed
    long checks = 0;         // checks run, incremental or full
    long sweeps = 0;         // full sweeps (backstop, run_end, direct calls)
    long nodes_checked = 0;  // per-node accounting checks over all checks
    long recycle_checks = 0; // recycle events audited
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Per-source conservation over snap_, which the caller just filled from
  /// one pool: entries strictly ascending by source, every grant
  /// non-negative and traced to an entry, idle + lent == harvested.
  void check_conservation(const char* origin);
  /// Node accounting for one node: its placed list against its allocated
  /// totals and up flag, and each of its free shard slices against the
  /// capacity index's root (no slice above it; roots_ must be loaded).
  void check_node(sim::EngineApi& api, const sim::Node& node,
                  const char* what);
  /// Reads the capacity index's roots into roots_ and resets slice_max_,
  /// which check_node folds each checked node's free slices into.
  void load_roots(sim::EngineApi& api);
  /// The capacity index, exactly: after check_node ran on every node, each
  /// shard's root equals the largest free slice, bit for bit, per axis.
  /// Full sweep only.
  void check_capacity_index(const char* what);
  /// The coverage pick's candidate sets (DESIGN.md §5l): for the policy's
  /// snapshots and for every controller cache, bit n is set exactly when
  /// view n holds an entry. A missing bit would drop a candidate; a stale
  /// set bit only costs time. Both are reported. Full sweep only.
  void check_occupancy(sim::EngineApi& api, const char* what);
  /// Everything about node n's pool: conservation, entry and grant
  /// liveness, quarantine, down-node emptiness. No-op without a pool.
  void check_pool(sim::EngineApi& api, size_t n, const char* what);
  /// Bookkeeping boundedness for the ids finalized since the last check:
  /// none may still hold a raw-prediction stash entry.
  void check_finalized(const char* what);
  /// Folds the engine's marks for the current event into the pending set.
  void collect(sim::EngineApi& api);
  /// The incremental check over the pending set; clears it.
  void check_marked(sim::EngineApi& api, const char* what);
  /// True when a function entered quarantine since the last call.
  bool quarantine_moved();
  /// Counts one engine event down; true when it is sampled, which is
  /// exactly when its id is a multiple of every_n. Engine ids arrive one
  /// apart, so the countdown finds them without a division; any other step
  /// restarts it from the id.
  bool sample_due(long id);
  void clear_pending();
  /// Recycle-safety check (streaming runs): a record about to be returned to
  /// the engine's free list must be terminal and unreferenced — not placed,
  /// not a pool source or borrower. The terminal check runs on every recycle
  /// event; the reference scans follow the every_n sampling.
  void check_recycle(sim::EngineApi& api, sim::InvocationId id, bool sampled);

  InvariantAuditorConfig cfg_;
  core::LibraPolicy* policy_ = nullptr;
  Stats stats_;
  /// Marked since the previous check: nodes (engine marks and pool events),
  /// finalized ids, and whether a pool event without a node hint forces a
  /// pass over every pool.
  sim::TouchLog pending_nodes_;
  std::vector<sim::InvocationId> pending_finalized_;
  bool all_pools_pending_ = false;
  /// TrustManager::quarantine_transitions at the previous check.
  long quarantines_seen_ = 0;
  /// The previous engine event's id, and how many events after it until
  /// the next sampled one.
  long last_event_id_ = 0;
  long sample_countdown_ = 0;
  /// Scratch reused by every check (capacity only grows): the pending nodes
  /// in ascending order (the full sweep's diagnostic order), the snapshot of
  /// the pool under audit, and its per-entry lent totals (index-aligned
  /// with snap_.entries).
  std::vector<sim::NodeId> order_;
  core::HarvestResourcePool::DebugState snap_;
  std::vector<sim::Resources> lent_;
  /// Per shard: the capacity index's root, read once per check, and the
  /// largest free slice over the nodes checked since.
  std::vector<sim::Resources> roots_;
  std::vector<sim::Resources> slice_max_;
};

}  // namespace libra::analysis
