#include "core/harvest_pool.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/audit.h"

namespace libra::core {

using sim::InvocationId;
using sim::Resources;
using sim::SimTime;

namespace {
/// Conservation comparisons tolerate float noise from long +=/-= chains; the
/// tolerance scales with magnitude (memory volumes run into the tens of
/// thousands of MB).
bool near(double a, double b) {
  const double mag = std::max(std::abs(a), std::abs(b));
  return std::abs(a - b) <= 1e-6 + 1e-9 * mag;
}
bool near(const Resources& a, const Resources& b) {
  return near(a.cpu, b.cpu) && near(a.mem, b.mem);
}
}  // namespace

void HarvestResourcePool::accrue_idle_locked(SimTime now) const {
  if (now > last_accrual_) {
    const Resources idle = idle_total_locked();
    idle_cpu_secs_ += idle.cpu * (now - last_accrual_);
    idle_mem_secs_ += idle.mem * (now - last_accrual_);
    last_accrual_ = now;
  } else if (now < last_accrual_) {
    // A caller's clock lags a concurrent observer's. The interval was
    // already integrated against the older idle volume; count the skew for
    // the auditor rather than double-counting the window.
    ++clock_regressions_;
  }
}

Resources HarvestResourcePool::idle_total_locked() const {
  Resources total;
  for (const auto& entry : entries_) total += entry.idle;
  return total;
}

HarvestResourcePool::Entry* HarvestResourcePool::find_entry_locked(
    InvocationId source) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), source,
      [](const Entry& e, InvocationId id) { return e.source < id; });
  return it != entries_.end() && it->source == source ? &*it : nullptr;
}

const HarvestResourcePool::Entry* HarvestResourcePool::find_entry_locked(
    InvocationId source) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), source,
      [](const Entry& e, InvocationId id) { return e.source < id; });
  return it != entries_.end() && it->source == source ? &*it : nullptr;
}

HarvestResourcePool::Entry& HarvestResourcePool::entry_for_locked(
    InvocationId source) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), source,
      [](const Entry& e, InvocationId id) { return e.source < id; });
  if (it != entries_.end() && it->source == source) return *it;
  Entry fresh;
  fresh.source = source;
  return *entries_.insert(it, fresh);
}

void HarvestResourcePool::append_borrow_locked(Entry& entry,
                                               InvocationId borrower,
                                               const Resources& amount,
                                               int tenant) {
  int32_t idx;
  if (!borrow_free_.empty()) {
    idx = borrow_free_.back();
    borrow_free_.pop_back();
  } else {
    idx = static_cast<int32_t>(borrow_slab_.size());
    borrow_slab_.emplace_back();
  }
  BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
  r.source = entry.source;
  r.borrower = borrower;
  r.amount = amount;
  r.est_expiry = entry.est_expiry;
  r.tenant = tenant;
  r.live = true;
  // Tail-append on the global order list: iteration order == insertion
  // order, exactly the legacy vector's semantics the FP audits depend on.
  r.prev_order = borrow_tail_;
  r.next_order = -1;
  if (borrow_tail_ != -1)
    borrow_slab_[static_cast<size_t>(borrow_tail_)].next_order = idx;
  else
    borrow_head_ = idx;
  borrow_tail_ = idx;
  // Tail-append on the source's grant chain, same per-source order.
  r.prev_src = entry.grants_tail;
  r.next_src = -1;
  if (entry.grants_tail != -1)
    borrow_slab_[static_cast<size_t>(entry.grants_tail)].next_src = idx;
  else
    entry.grants_head = idx;
  entry.grants_tail = idx;
  ++borrow_count_;
}

void HarvestResourcePool::unlink_order_locked(int32_t idx) {
  BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
  if (r.prev_order != -1)
    borrow_slab_[static_cast<size_t>(r.prev_order)].next_order = r.next_order;
  else
    borrow_head_ = r.next_order;
  if (r.next_order != -1)
    borrow_slab_[static_cast<size_t>(r.next_order)].prev_order = r.prev_order;
  else
    borrow_tail_ = r.prev_order;
  r.live = false;
  r.prev_order = r.next_order = r.prev_src = r.next_src = -1;
  borrow_free_.push_back(idx);
  --borrow_count_;
}

void HarvestResourcePool::unlink_src_locked(Entry& entry, int32_t idx) {
  BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
  if (r.prev_src != -1)
    borrow_slab_[static_cast<size_t>(r.prev_src)].next_src = r.next_src;
  else
    entry.grants_head = r.next_src;
  if (r.next_src != -1)
    borrow_slab_[static_cast<size_t>(r.next_src)].prev_src = r.prev_src;
  else
    entry.grants_tail = r.prev_src;
}

void HarvestResourcePool::audit_invariants_locked(SimTime now) const {
  // Per-record checks, in the global insertion-order walk.
  for (int32_t idx = borrow_head_; idx != -1;
       idx = borrow_slab_[static_cast<size_t>(idx)].next_order) {
    const BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
    LIBRA_AUDIT_CHECK(r.amount.cpu >= -1e-9 && r.amount.mem >= -1e-9,
                      "negative borrow amount: source=" << r.source
                          << " borrower=" << r.borrower << " amount="
                          << r.amount.to_string() << " now=" << now);
    const Entry* entry = find_entry_locked(r.source);
    LIBRA_AUDIT_CHECK(entry != nullptr,
                      "borrow references a released source: source="
                          << r.source << " borrower=" << r.borrower
                          << " amount=" << r.amount.to_string()
                          << " now=" << now);
    if (entry != nullptr) {
      // put() only ever raises an entry's expiry, so a grant's recorded
      // expiry can never exceed its source entry's current one.
      LIBRA_AUDIT_CHECK(r.est_expiry <= entry->est_expiry + 1e-9,
                        "borrow expiry exceeds source expiry: source="
                            << r.source << " borrower=" << r.borrower
                            << " borrow_expiry=" << r.est_expiry
                            << " entry_expiry=" << entry->est_expiry);
    }
  }
  // Per-tenant quota: no tenant's concurrently borrowed volume may exceed
  // its registered cap (per axis; tenants without a quota are unrestricted).
  // The quota table is sorted by tenant, and tenant_outstanding_locked sums
  // in the global insertion order, so sums and report order are those of
  // the former per-tenant map.
  for (const TenantQuota& q : tenant_quotas_) {
    const Resources outstanding = tenant_outstanding_locked(q.tenant);
    LIBRA_AUDIT_CHECK(
        outstanding.cpu <= q.cap.cpu + 1e-6 + 1e-9 * q.cap.cpu &&
            outstanding.mem <= q.cap.mem + 1e-6 + 1e-9 * q.cap.mem,
        "tenant quota exceeded: tenant="
            << q.tenant << " outstanding=" << outstanding.to_string()
            << " quota=" << q.cap.to_string() << " now=" << now);
  }
  // Conservation per source: idle + outstanding grants == harvested volume.
  // Entry order is ascending source id by construction (sorted vector). Each
  // entry's grants are summed along its own chain, which is in insertion
  // order — the global walk's per-source order — so every sum is
  // bit-identical to a keyed accumulation over the global list.
  for (const auto& entry : entries_) {
    LIBRA_AUDIT_CHECK(entry.idle.cpu >= -1e-9 && entry.idle.mem >= -1e-9,
                      "negative idle volume: source=" << entry.source
                          << " idle=" << entry.idle.to_string()
                          << " now=" << now);
    Resources borrowed;
    for (int32_t idx = entry.grants_head; idx != -1;
         idx = borrow_slab_[static_cast<size_t>(idx)].next_src)
      borrowed += borrow_slab_[static_cast<size_t>(idx)].amount;
    const Resources outstanding = entry.idle + borrowed;
    LIBRA_AUDIT_CHECK(
        near(outstanding, entry.harvested),
        "conservation violated: source="
            << entry.source << " idle=" << entry.idle.to_string()
            << " borrowed=" << borrowed.to_string()
            << " harvested=" << entry.harvested.to_string()
            << " expiry=" << entry.est_expiry << " now=" << now);
  }
}

void HarvestResourcePool::notify(PoolOp op, InvocationId subject,
                                 SimTime now) const {
  if (listener_ == nullptr) return;
  PoolEvent event;
  event.op = op;
  event.subject = subject;
  event.now = now;
  event.pool = this;
  event.node = node_hint_;
  listener_->on_pool_event(event);
}

void HarvestResourcePool::put(InvocationId source, const Resources& volume,
                              SimTime est_completion, SimTime now) {
  if (volume.cpu < 0 || volume.mem < 0) return;
  {
    util::MutexLock lock(mu_);
    accrue_idle_locked(now);
    Entry& entry = entry_for_locked(source);
    entry.idle += volume;
    entry.harvested += volume;
    entry.est_expiry = std::max(entry.est_expiry, est_completion);
    audit_invariants_locked(now);
  }
  notify(PoolOp::kPut, source, now);
}

std::vector<HarvestResourcePool::Grant> HarvestResourcePool::get(
    const Resources& desired, InvocationId borrower, SimTime now,
    const GetOptions& opt) {
  std::vector<Grant> grants;
  {
    util::MutexLock lock(mu_);
    accrue_idle_locked(now);

    // Candidate ordering: timeliness-aware mode lends the longest-lived
    // resources first ("prioritizes harvested resources that can potentially
    // be utilized longer"); the blind mode walks entries in id order — which
    // is simply the sorted vector's index order. The (expiry, index) keys
    // are copied out so the comparator never touches guarded state.
    std::vector<std::pair<double, size_t>> order;
    order.reserve(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i)
      order.emplace_back(entries_[i].est_expiry, i);
    if (opt.timeliness_order) {
      std::stable_sort(order.begin(), order.end(),
                       [](const std::pair<double, size_t>& a,
                          const std::pair<double, size_t>& b) {
                         return a.first > b.first;
                       });
    }

    Resources remaining = desired.clamped_non_negative();
    // Tenant quota clamp: never grant past the tenant's remaining room.
    // Room is derived from the live borrow records, so every return path
    // (reharvest, preempt_source, preempt_all) frees it automatically.
    if (const Resources* cap = find_quota_locked(opt.tenant)) {
      const Resources room =
          (*cap - tenant_outstanding_locked(opt.tenant)).clamped_non_negative();
      remaining = Resources::min(remaining, room);
    }
    for (const auto& [expiry, i] : order) {
      (void)expiry;  // sort key only
      if (remaining.is_zero()) break;
      Entry& entry = entries_[i];
      // Entries past their *estimated* expiry are still valid — the estimate
      // only orders priorities; actual release happens at source completion.
      // Timeliness ordering already places them last.
      Resources take;
      take.cpu = std::min(remaining.cpu, entry.idle.cpu);
      const bool mem_ok = opt.mem_expiry_floor < 0.0 ||
                          entry.est_expiry >= opt.mem_expiry_floor;
      take.mem = mem_ok ? std::min(remaining.mem, entry.idle.mem) : 0.0;
      if (take.is_zero()) continue;
      entry.idle -= take;
      remaining -= take;
      remaining = remaining.clamped_non_negative();
      grants.push_back({entry.source, take, entry.est_expiry});
      append_borrow_locked(entry, borrower, take, opt.tenant);
    }
    // Timeliness ordering promises longest-lived-first grants (§5.1); the
    // sort above must survive refactors, so the promise is audited here.
    if (opt.timeliness_order) {
      for (size_t i = 1; i < grants.size(); ++i) {
        LIBRA_AUDIT_CHECK(
            grants[i - 1].est_expiry >= grants[i].est_expiry - 1e-9,
            "timeliness order violated: grant["
                << i - 1 << "] source=" << grants[i - 1].source << " expiry="
                << grants[i - 1].est_expiry << " precedes grant[" << i
                << "] source=" << grants[i].source << " expiry="
                << grants[i].est_expiry << " borrower=" << borrower);
      }
    }
    audit_invariants_locked(now);
  }
  if (!grants.empty()) notify(PoolOp::kGet, borrower, now);
  return grants;
}

std::vector<HarvestResourcePool::Revocation>
HarvestResourcePool::preempt_source(InvocationId source, SimTime now) {
  std::vector<Revocation> out;
  {
    util::MutexLock lock(mu_);
    accrue_idle_locked(now);
    Entry* entry = find_entry_locked(source);
    if (entry != nullptr) {
      // Aggregate outstanding grants per borrower via the source's grant
      // chain (chain order == the records' insertion order, so the FP sums
      // match the legacy full-vector filter walk), then drop the records.
      std::map<InvocationId, Resources> per_borrower;
      int32_t idx = entry->grants_head;
      while (idx != -1) {
        const BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
        const int32_t next = r.next_src;
        per_borrower[r.borrower] += r.amount;
        unlink_order_locked(idx);  // chain dies with the entry below
        idx = next;
      }
      entries_.erase(entries_.begin() + (entry - entries_.data()));
      out.reserve(per_borrower.size());
      for (const auto& [borrower, amount] : per_borrower)
        out.push_back({borrower, amount});
    }
    audit_invariants_locked(now);
  }
  notify(PoolOp::kPreemptSource, source, now);
  return out;
}

void HarvestResourcePool::reharvest(InvocationId borrower, SimTime now) {
  {
    util::MutexLock lock(mu_);
    accrue_idle_locked(now);
    // Global order-list walk — same insertion-order sequence as the legacy
    // remove_if over the borrows vector.
    int32_t idx = borrow_head_;
    while (idx != -1) {
      BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
      const int32_t next = r.next_order;
      if (r.borrower == borrower) {
        if (Entry* entry = find_entry_locked(r.source)) {
          // Source is still running: the volume re-enters the pool at its
          // original priority.
          entry->idle += r.amount;
          unlink_src_locked(*entry, idx);
        }
        unlink_order_locked(idx);
      }
      idx = next;
    }
    audit_invariants_locked(now);
  }
  notify(PoolOp::kReharvest, borrower, now);
}

std::vector<HarvestResourcePool::Revocation> HarvestResourcePool::preempt_all(
    SimTime now) {
  std::vector<Revocation> out;
  {
    util::MutexLock lock(mu_);
    accrue_idle_locked(now);
    entries_.clear();
    std::map<InvocationId, Resources> per_borrower;
    for (int32_t idx = borrow_head_; idx != -1;
         idx = borrow_slab_[static_cast<size_t>(idx)].next_order) {
      const BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
      per_borrower[r.borrower] += r.amount;
    }
    borrow_slab_.clear();
    borrow_free_.clear();
    borrow_head_ = borrow_tail_ = -1;
    borrow_count_ = 0;
    out.reserve(per_borrower.size());
    for (const auto& [borrower, amount] : per_borrower)
      out.push_back({borrower, amount});
    audit_invariants_locked(now);
  }
  notify(PoolOp::kPreemptAll, 0, now);
  return out;
}

size_t HarvestResourcePool::outstanding_borrows() const {
  util::MutexLock lock(mu_);
  return borrow_count_;
}

PoolStatus HarvestResourcePool::snapshot(SimTime now) const {
  util::MutexLock lock(mu_);
  // Advance the accrual clock: a status consumer pairing this snapshot with
  // the idle-time integrals sees both as of the same instant.
  accrue_idle_locked(now);
  PoolStatus status;
  status.taken_at = now;
  for (const auto& entry : entries_) {
    if (entry.idle.is_zero()) continue;
    status.entries.push_back({entry.idle, entry.est_expiry});
  }
  return status;
}

Resources HarvestResourcePool::idle_total() const {
  util::MutexLock lock(mu_);
  return idle_total_locked();
}

size_t HarvestResourcePool::entry_count() const {
  util::MutexLock lock(mu_);
  return entries_.size();
}

HarvestResourcePool::IdleIntegrals HarvestResourcePool::idle_integrals(
    SimTime now) const {
  util::MutexLock lock(mu_);
  accrue_idle_locked(now);
  return {idle_cpu_secs_, idle_mem_secs_};
}

void HarvestResourcePool::debug_state(DebugState& out) const {
  util::MutexLock lock(mu_);
  out.entries.clear();
  for (const auto& entry : entries_)
    out.entries.push_back(
        {entry.source, entry.idle, entry.est_expiry, entry.harvested});
  out.borrows.clear();
  // Global insertion-order list == the legacy vector's order, so debug dumps
  // and audits see grants in the same sequence as before the flat layout.
  for (int32_t idx = borrow_head_; idx != -1;
       idx = borrow_slab_[static_cast<size_t>(idx)].next_order) {
    const BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
    out.borrows.push_back(
        {r.source, r.borrower, r.amount, r.est_expiry, r.tenant});
  }
  out.idle_cpu_secs = idle_cpu_secs_;
  out.idle_mem_secs = idle_mem_secs_;
  out.last_accrual = last_accrual_;
  out.clock_regressions = clock_regressions_;
}

void HarvestResourcePool::audit_now(SimTime now) const {
  util::MutexLock lock(mu_);
  audit_invariants_locked(now);
}

Resources HarvestResourcePool::tenant_outstanding_locked(int tenant) const {
  Resources outstanding;
  for (int32_t idx = borrow_head_; idx != -1;
       idx = borrow_slab_[static_cast<size_t>(idx)].next_order) {
    const BorrowRecord& r = borrow_slab_[static_cast<size_t>(idx)];
    if (r.tenant == tenant) outstanding += r.amount;
  }
  return outstanding;
}

const Resources* HarvestResourcePool::find_quota_locked(int tenant) const {
  const auto it = std::lower_bound(
      tenant_quotas_.begin(), tenant_quotas_.end(), tenant,
      [](const TenantQuota& q, int t) { return q.tenant < t; });
  return it != tenant_quotas_.end() && it->tenant == tenant ? &it->cap
                                                            : nullptr;
}

void HarvestResourcePool::set_tenant_quota(int tenant, const Resources& cap) {
  util::MutexLock lock(mu_);
  const auto it = std::lower_bound(
      tenant_quotas_.begin(), tenant_quotas_.end(), tenant,
      [](const TenantQuota& q, int t) { return q.tenant < t; });
  if (it != tenant_quotas_.end() && it->tenant == tenant)
    it->cap = cap;
  else
    tenant_quotas_.insert(it, TenantQuota{tenant, cap});
}

Resources HarvestResourcePool::tenant_outstanding(int tenant) const {
  util::MutexLock lock(mu_);
  return tenant_outstanding_locked(tenant);
}

void HarvestResourcePool::corrupt_for_audit_test(InvocationId source,
                                                 const Resources& delta) {
  util::MutexLock lock(mu_);
  entry_for_locked(source).idle +=
      delta;  // deliberately skips the harvested ledger
}

void HarvestResourcePool::corrupt_order_for_audit_test() {
  util::MutexLock lock(mu_);
  if (entries_.size() >= 2) std::swap(entries_[0], entries_[1]);
}

void HarvestResourcePool::orphan_grants_for_audit_test(InvocationId source) {
  util::MutexLock lock(mu_);
  const Entry* entry = find_entry_locked(source);
  if (entry != nullptr)
    entries_.erase(entries_.begin() + (entry - entries_.data()));
}

void HarvestResourcePool::corrupt_tenant_for_audit_test(
    InvocationId source, InvocationId borrower, int tenant,
    const Resources& delta) {
  util::MutexLock lock(mu_);
  // Harvested ledger bumped in lockstep with the fabricated borrow record:
  // conservation still holds, so the per-tenant quota audit is the check
  // that fires on the next sweep.
  Entry& entry = entry_for_locked(source);
  entry.harvested += delta;
  append_borrow_locked(entry, borrower, delta, tenant);
}

}  // namespace libra::core
