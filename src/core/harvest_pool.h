// The harvest resource pool (§5.1): per-worker-node tracking of idle
// resources harvested from over-provisioned invocations. Each tracked object
// is (invo_id, hvst_resource_vol, priority) where priority is the estimated
// completion timestamp of the source invocation — entries that will live
// longer are lent out first. Supports the paper's five features:
//
//   * essential put/get (get is best-effort and may take partial volumes
//     from several entries, per resource axis independently),
//   * priority ordering (timeliness-aware: latest estimated expiry first;
//     can be disabled to model Freyr's timeliness-blind reuse),
//   * preemptive release (source finished/safeguarded: idle volume vanishes
//     and outstanding grants are revoked from their borrowers),
//   * re-harvesting (a finished borrower returns still-valid grants to the
//     pool at their original priority),
//   * concurrency (mutex-protected; the sharded schedulers and monitor
//     daemons of the real system touch pools from many threads).
//
// The pool also keeps the idle-resource-time integrals (resource volume x
// time spent idle in the pool) that Fig. 10(b)/(c) report.
//
// Correctness machinery: every field is LIBRA_GUARDED_BY(mu_) so clang's
// -Wthread-safety proves the lock discipline; every mutating operation ends
// with an internal conservation audit (idle + outstanding grants == volume
// harvested per source, LIBRA_AUDIT_CHECK-enforced in all build types) and
// fires a PoolEvent so the cross-layer invariant auditor (src/analysis) can
// run its own checks against debug_state().
#pragma once

#include <cstdint>
#include <vector>

#include "core/pool_event.h"
#include "core/pool_status.h"
#include "sim/types.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace libra::core {

class HarvestResourcePool {
 public:
  struct Grant {
    sim::InvocationId source = 0;
    sim::Resources amount;
    sim::SimTime est_expiry = 0.0;
  };
  struct Revocation {
    sim::InvocationId borrower = 0;
    sim::Resources amount;
  };
  struct GetOptions {
    /// Latest-expiry-first when true (Libra); insertion order when false
    /// (Freyr's timeliness-blind behaviour).
    bool timeliness_order = true;
    /// When >= 0, memory is only borrowed from entries whose estimated
    /// expiry covers this deadline — revoking memory mid-run is what causes
    /// OOMs, so Libra filters by the borrower's predicted finish time.
    sim::SimTime mem_expiry_floor = -1.0;
    /// Tenant (priority class) the borrower belongs to. When a quota is
    /// registered for it (set_tenant_quota), the grant is clamped so the
    /// tenant's concurrently outstanding borrowed volume never exceeds the
    /// quota — per axis, audited after every mutation.
    int tenant = 0;
  };

  /// Both Fig. 10 idle-time integrals, read under one lock acquisition so a
  /// concurrent put/get cannot tear the (cpu, mem) pair.
  struct IdleIntegrals {
    double cpu_core_seconds = 0.0;
    double mem_mb_seconds = 0.0;
  };

  /// Tracks `volume` of idle resources harvested from `source`, with the
  /// estimated completion timestamp as the priority. Merging an existing
  /// source accumulates volume and keeps the later expiry.
  void put(sim::InvocationId source, const sim::Resources& volume,
           sim::SimTime est_completion, sim::SimTime now) LIBRA_EXCLUDES(mu_);

  /// Best-effort acquisition of up to `desired` for `borrower`. Returns the
  /// per-source grants actually taken (possibly empty).
  std::vector<Grant> get(const sim::Resources& desired,
                         sim::InvocationId borrower, sim::SimTime now,
                         const GetOptions& opt) LIBRA_EXCLUDES(mu_);
  std::vector<Grant> get(const sim::Resources& desired,
                         sim::InvocationId borrower, sim::SimTime now)
      LIBRA_EXCLUDES(mu_) {
    return get(desired, borrower, now, GetOptions());
  }

  /// Preemptive release (§5.1): the source invocation completed, OOMed or
  /// was safeguarded. Drops its idle entry and returns the outstanding
  /// grants that must be revoked from borrowers.
  std::vector<Revocation> preempt_source(sim::InvocationId source,
                                         sim::SimTime now) LIBRA_EXCLUDES(mu_);

  /// Re-harvesting (§5.1): the borrower finished; still-valid grants return
  /// to their source entries at the original priority. Grants whose source
  /// already finished are gone (nothing to return).
  void reharvest(sim::InvocationId borrower, sim::SimTime now)
      LIBRA_EXCLUDES(mu_);

  /// Node-crash teardown: drops every idle entry and returns ALL outstanding
  /// grants aggregated per borrower, so the policy can revoke them before the
  /// engine reaps the node. Leaves the pool empty (idle-time integrals are
  /// preserved — the node accrued that history before dying).
  std::vector<Revocation> preempt_all(sim::SimTime now) LIBRA_EXCLUDES(mu_);

  /// Number of outstanding borrow records (grants not yet returned/revoked).
  size_t outstanding_borrows() const LIBRA_EXCLUDES(mu_);

  /// Snapshot for health-ping piggybacking. Advances the idle-time accrual
  /// clock so the snapshot's taken_at and the integrals stay consistent.
  PoolStatus snapshot(sim::SimTime now) const LIBRA_EXCLUDES(mu_);

  /// Total currently idle (un-borrowed) volume.
  sim::Resources idle_total() const LIBRA_EXCLUDES(mu_);

  /// Number of tracked source entries.
  size_t entry_count() const LIBRA_EXCLUDES(mu_);

  // ---- Fig. 10 idle-time accounting ----
  IdleIntegrals idle_integrals(sim::SimTime now) const LIBRA_EXCLUDES(mu_);

  // ---- Correctness / audit machinery ----

  /// Introspection for the invariant auditor and tests: a consistent copy of
  /// the pool's ledgers taken under one lock acquisition.
  struct DebugEntry {
    sim::InvocationId source = 0;
    sim::Resources idle;
    sim::SimTime est_expiry = 0.0;
    /// Cumulative volume harvested from the source and still owned by the
    /// pool (idle or lent out); shrinks only at preemptive release.
    sim::Resources harvested;
  };
  struct DebugBorrow {
    sim::InvocationId source = 0;
    sim::InvocationId borrower = 0;
    sim::Resources amount;
    sim::SimTime est_expiry = 0.0;
    int tenant = 0;
  };
  struct DebugState {
    /// Ascending source order (the entry vector's order).
    std::vector<DebugEntry> entries;
    /// Global grant insertion order.
    std::vector<DebugBorrow> borrows;
    double idle_cpu_secs = 0.0;
    double idle_mem_secs = 0.0;
    sim::SimTime last_accrual = 0.0;
    /// Operations observed with `now` behind the accrual clock (clock skew
    /// between concurrent callers; counted, never fatal).
    long clock_regressions = 0;
  };
  /// Refills `out` in place: the vectors are cleared, not shrunk, so a
  /// caller that reuses one DebugState stops allocating once its capacity
  /// covers the largest pool it snapshots (the auditor's per-event sweep).
  void debug_state(DebugState& out) const LIBRA_EXCLUDES(mu_);

  /// Re-runs the internal conservation audit on the current state (the same
  /// checks every mutating operation performs). Aborts via LIBRA_AUDIT_CHECK
  /// on violation.
  void audit_now(sim::SimTime now) const LIBRA_EXCLUDES(mu_);

  /// Registers the observer notified (outside the lock) after every mutating
  /// operation. Install before concurrent use; pass nullptr to detach.
  void set_event_listener(PoolEventListener* listener) {
    listener_ = listener;
  }

  /// Tags the pool with the worker node that owns it, so PoolEvents carry a
  /// node id (the pool itself never needs it). Set once during setup.
  void set_node_hint(sim::NodeId node) { node_hint_ = node; }

  /// Registers (or replaces) a hard cap on `tenant`'s concurrently borrowed
  /// volume from this pool. Enforced at get() time and audited after every
  /// mutation; tenants without a registered quota are unrestricted. Quota
  /// room is derived from the live borrow records, so reharvest /
  /// preempt_source / preempt_all free it automatically.
  void set_tenant_quota(int tenant, const sim::Resources& cap)
      LIBRA_EXCLUDES(mu_);

  /// Volume currently borrowed by `tenant` (sum over its borrow records).
  sim::Resources tenant_outstanding(int tenant) const LIBRA_EXCLUDES(mu_);

  /// TEST-ONLY fault injection: adds `delta` idle volume to `source` without
  /// recording it as harvested, deliberately breaking conservation so the
  /// negative tests can prove the auditor fires. Never call outside tests.
  void corrupt_for_audit_test(sim::InvocationId source,
                              const sim::Resources& delta) LIBRA_EXCLUDES(mu_);

  /// TEST-ONLY fault injection: swaps the first two source entries, breaking
  /// the ascending source order that lookups rely on. Never call outside
  /// tests.
  void corrupt_order_for_audit_test() LIBRA_EXCLUDES(mu_);

  /// TEST-ONLY fault injection: erases `source`'s entry but leaves its
  /// grants outstanding, so they reference a source with no pool entry.
  /// Never call outside tests.
  void orphan_grants_for_audit_test(sim::InvocationId source)
      LIBRA_EXCLUDES(mu_);

  /// TEST-ONLY fault injection: fabricates an over-quota borrow record for
  /// `tenant` (bumping the source's harvested ledger in lockstep, so
  /// conservation still holds and the per-tenant quota audit is the check
  /// that fires). Never call outside tests.
  void corrupt_tenant_for_audit_test(sim::InvocationId source,
                                     sim::InvocationId borrower, int tenant,
                                     const sim::Resources& delta)
      LIBRA_EXCLUDES(mu_);

 private:
  // Flat hot-path layout (§5l). Source entries live in ONE vector kept
  // sorted by source id — the legacy std::map's iteration order — so every
  // walk (idle totals, audits, snapshots) is a linear scan over contiguous
  // memory and the floating-point sums stay bit-identical to the map-based
  // pool. Borrow records live in a slab threaded onto two intrusive
  // doubly-linked lists: the global insertion-order list (the legacy
  // vector's iteration order, which the FP-summing audits, debug_state and
  // reharvest depend on) and a per-source grant chain hanging off the
  // source's entry (preemptive release revokes a source's grants without
  // scanning every record). Free slots are recycled LIFO.
  struct Entry {
    sim::InvocationId source = 0;
    sim::Resources idle;
    sim::SimTime est_expiry = 0.0;
    /// Conservation ledger: total volume harvested from this source and not
    /// yet preemptively released. Invariant: idle + Σ borrows == harvested.
    sim::Resources harvested;
    /// Per-source grant chain: slab indices in insertion order (-1 = none).
    int32_t grants_head = -1;
    int32_t grants_tail = -1;
  };
  struct BorrowRecord {
    sim::InvocationId source = 0;
    sim::InvocationId borrower = 0;
    sim::Resources amount;
    sim::SimTime est_expiry = 0.0;
    int tenant = 0;
    bool live = false;
    int32_t prev_order = -1;  // global insertion-order list
    int32_t next_order = -1;
    int32_t prev_src = -1;  // per-source grant chain
    int32_t next_src = -1;
  };

  void accrue_idle_locked(sim::SimTime now) const LIBRA_REQUIRES(mu_);
  sim::Resources idle_total_locked() const LIBRA_REQUIRES(mu_);
  /// Conservation + ordering audit; runs after every mutation.
  void audit_invariants_locked(sim::SimTime now) const LIBRA_REQUIRES(mu_);
  void notify(PoolOp op, sim::InvocationId subject, sim::SimTime now) const
      LIBRA_EXCLUDES(mu_);

  /// Borrowed volume currently outstanding for `tenant` (order-list walk).
  sim::Resources tenant_outstanding_locked(int tenant) const
      LIBRA_REQUIRES(mu_);

  /// Binary search in the sorted quota table; nullptr when `tenant` has no
  /// registered cap.
  const sim::Resources* find_quota_locked(int tenant) const
      LIBRA_REQUIRES(mu_);

  /// Binary search in the sorted entry vector; nullptr when absent.
  Entry* find_entry_locked(sim::InvocationId source) LIBRA_REQUIRES(mu_);
  const Entry* find_entry_locked(sim::InvocationId source) const
      LIBRA_REQUIRES(mu_);
  /// Find-or-insert at the sorted position (the legacy map's operator[]).
  Entry& entry_for_locked(sim::InvocationId source) LIBRA_REQUIRES(mu_);
  /// Appends a live borrow record (slab slot reuse), linking it onto the
  /// global insertion-order list and `entry`'s grant chain.
  void append_borrow_locked(Entry& entry, sim::InvocationId borrower,
                            const sim::Resources& amount, int tenant)
      LIBRA_REQUIRES(mu_);
  /// Unlinks a record from the global order list and recycles its slot. The
  /// caller handles the per-source chain (consumed wholesale or via
  /// unlink_src_locked).
  void unlink_order_locked(int32_t idx) LIBRA_REQUIRES(mu_);
  /// Removes a record from its source entry's grant chain.
  void unlink_src_locked(Entry& entry, int32_t idx) LIBRA_REQUIRES(mu_);

  mutable util::Mutex mu_;
  /// Source entries, sorted by source id (== legacy map iteration order).
  std::vector<Entry> entries_ LIBRA_GUARDED_BY(mu_);
  /// Borrow-record slab + LIFO free list + global order-list endpoints.
  std::vector<BorrowRecord> borrow_slab_ LIBRA_GUARDED_BY(mu_);
  std::vector<int32_t> borrow_free_ LIBRA_GUARDED_BY(mu_);
  int32_t borrow_head_ LIBRA_GUARDED_BY(mu_) = -1;
  int32_t borrow_tail_ LIBRA_GUARDED_BY(mu_) = -1;
  size_t borrow_count_ LIBRA_GUARDED_BY(mu_) = 0;
  struct TenantQuota {
    int tenant = 0;
    sim::Resources cap;
  };
  /// Per-tenant caps on concurrently borrowed volume, sorted by tenant
  /// (empty = no quotas). Written at setup, binary-searched per get().
  std::vector<TenantQuota> tenant_quotas_ LIBRA_GUARDED_BY(mu_);
  mutable double idle_cpu_secs_ LIBRA_GUARDED_BY(mu_) = 0.0;
  mutable double idle_mem_secs_ LIBRA_GUARDED_BY(mu_) = 0.0;
  mutable sim::SimTime last_accrual_ LIBRA_GUARDED_BY(mu_) = 0.0;
  mutable long clock_regressions_ LIBRA_GUARDED_BY(mu_) = 0;
  /// Written once during setup, read outside the lock (the callback must be
  /// able to re-enter the pool's const API).
  // LIBRA_LINT_ALLOW(guarded-by-coverage): written once before concurrent use; notify() reads it outside the lock by design
  PoolEventListener* listener_ = nullptr;
  /// Owner node for PoolEvent stamping; written once during setup.
  // LIBRA_LINT_ALLOW(guarded-by-coverage): written once before concurrent use, then read-only
  sim::NodeId node_hint_ = sim::kNoNode;
};

}  // namespace libra::core
