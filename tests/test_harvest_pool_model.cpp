// Model-based differential test for core::HarvestResourcePool (DESIGN.md
// §5l), in the style of test_id_containers_model.cpp. The model is the
// pool's contract written as plainly as possible: a std::map of sources
// {idle, harvested, expiry}, a std::vector of borrow records in insertion
// order, and a std::map of tenant caps. It knows nothing of the sorted
// entry vector, the borrow slab, its free list or the two intrusive lists
// (global order and per-source grant chain), so a bookkeeping slip in any
// of them shows up as a mismatch.
//
// Seeded sequences drive the pool and the model in lockstep: puts (many of
// them merges into a live source, some with an earlier expiry than the
// entry already has, half of them on a grid so expiries tie), gets in timeliness and blind order, with and without
// a memory expiry floor, for tenants with and without a quota, quota
// changes, preemptive release of live and absent sources, re-harvests and
// whole-pool preemption. The model does every floating-point operation in
// the pool's order, so the comparison is exact: the grants and revocations
// each call returns, then after every operation idle_total, entry_count,
// outstanding_borrows, tenant_outstanding of every tenant, a snapshot, the
// idle-time integrals and the full debug_state ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/harvest_pool.h"
#include "util/rng.h"

namespace libra::core {
namespace {

using sim::InvocationId;
using sim::Resources;
using sim::SimTime;
using Pool = HarvestResourcePool;

constexpr int kOps = 10000;
constexpr int kSources = 24;    // source ids 0..23: puts merge often
constexpr int kBorrowers = 12;  // borrower ids 1000..1011
constexpr int kTenants = 4;     // tenants 0..3; only 1 and 2 have a quota

std::string str(const Resources& r) { return r.to_string(); }

class PoolHarness {
 public:
  explicit PoolHarness(uint64_t seed) : rng_(seed) {}

  /// Runs `ops` operations over fresh pools of `episode` operations each.
  /// Stops at the first mismatch.
  void run(int ops, int episode) {
    for (int op = 0; op < ops && failure_.empty(); ++op) {
      if (op % episode == 0) fresh();
      step(op);
      if (failure_.empty()) compare(op);
    }
  }

  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }
  long merges() const { return merges_; }
  long timeliness_gets() const { return timeliness_gets_; }
  long blind_gets() const { return blind_gets_; }
  long floored_gets() const { return floored_gets_; }
  long clamped_gets() const { return clamped_gets_; }
  long unrestricted_gets() const { return unrestricted_gets_; }
  long revoking_preempts() const { return revoking_preempts_; }
  long returning_reharvests() const { return returning_reharvests_; }
  long revoking_preempt_alls() const { return revoking_preempt_alls_; }

 private:
  struct Source {
    Resources idle;
    Resources harvested;
    SimTime expiry = 0.0;
  };
  struct Borrow {
    InvocationId source = 0;
    InvocationId borrower = 0;
    Resources amount;
    SimTime expiry = 0.0;
    int tenant = 0;
  };

  void fresh() {
    pool_ = std::make_unique<Pool>();
    sources_.clear();
    borrows_.clear();
    caps_.clear();
    now_ = 0.0;
    idle_cpu_secs_ = idle_mem_secs_ = 0.0;
    last_accrual_ = 0.0;
    set_quota(1, {3.0, 600.0});
    set_quota(2, {8.0, 1500.0});
  }

  // ---- the model ----

  Resources model_idle_total() const {
    Resources total;
    for (const auto& [id, s] : sources_) total += s.idle;
    return total;
  }

  void model_accrue(SimTime now) {
    if (now > last_accrual_) {
      const Resources idle = model_idle_total();
      idle_cpu_secs_ += idle.cpu * (now - last_accrual_);
      idle_mem_secs_ += idle.mem * (now - last_accrual_);
      last_accrual_ = now;
    }
  }

  Resources model_outstanding(int tenant) const {
    Resources out;
    for (const Borrow& b : borrows_)
      if (b.tenant == tenant) out += b.amount;
    return out;
  }

  void model_put(InvocationId source, const Resources& volume,
                 SimTime expiry) {
    if (volume.cpu < 0 || volume.mem < 0) return;
    model_accrue(now_);
    Source& s = sources_[source];
    s.idle += volume;
    s.harvested += volume;
    s.expiry = std::max(s.expiry, expiry);
  }

  std::vector<Pool::Grant> model_get(const Resources& desired,
                                     InvocationId borrower,
                                     const Pool::GetOptions& opt) {
    model_accrue(now_);
    // Ascending ids; the timeliness order is latest expiry first, ties in
    // ascending id.
    std::vector<InvocationId> order;
    for (const auto& [id, s] : sources_) order.push_back(id);
    if (opt.timeliness_order)
      std::stable_sort(order.begin(), order.end(),
                       [this](InvocationId a, InvocationId b) {
                         return sources_.at(a).expiry > sources_.at(b).expiry;
                       });
    Resources remaining = desired.clamped_non_negative();
    if (const auto cap = caps_.find(opt.tenant); cap != caps_.end()) {
      const Resources room =
          (cap->second - model_outstanding(opt.tenant)).clamped_non_negative();
      if (room.cpu < remaining.cpu || room.mem < remaining.mem)
        ++clamped_gets_;
      remaining = Resources::min(remaining, room);
    }
    std::vector<Pool::Grant> grants;
    for (const InvocationId id : order) {
      if (remaining.is_zero()) break;
      Source& s = sources_.at(id);
      Resources take;
      take.cpu = std::min(remaining.cpu, s.idle.cpu);
      const bool mem_ok =
          opt.mem_expiry_floor < 0.0 || s.expiry >= opt.mem_expiry_floor;
      take.mem = mem_ok ? std::min(remaining.mem, s.idle.mem) : 0.0;
      if (take.is_zero()) continue;
      s.idle -= take;
      remaining -= take;
      remaining = remaining.clamped_non_negative();
      grants.push_back({id, take, s.expiry});
      borrows_.push_back({id, borrower, take, s.expiry, opt.tenant});
    }
    return grants;
  }

  std::vector<Pool::Revocation> model_preempt_source(InvocationId source) {
    model_accrue(now_);
    std::vector<Pool::Revocation> out;
    if (sources_.erase(source) == 0) return out;
    std::map<InvocationId, Resources> per_borrower;
    std::vector<Borrow> kept;
    for (const Borrow& b : borrows_) {
      if (b.source == source)
        per_borrower[b.borrower] += b.amount;
      else
        kept.push_back(b);
    }
    borrows_ = std::move(kept);
    for (const auto& [borrower, amount] : per_borrower)
      out.push_back({borrower, amount});
    return out;
  }

  /// Returns how many records went back into a live source.
  int model_reharvest(InvocationId borrower) {
    model_accrue(now_);
    int returned = 0;
    std::vector<Borrow> kept;
    for (const Borrow& b : borrows_) {
      if (b.borrower != borrower) {
        kept.push_back(b);
        continue;
      }
      if (auto it = sources_.find(b.source); it != sources_.end()) {
        it->second.idle += b.amount;
        ++returned;
      }
    }
    borrows_ = std::move(kept);
    return returned;
  }

  std::vector<Pool::Revocation> model_preempt_all() {
    model_accrue(now_);
    std::map<InvocationId, Resources> per_borrower;
    for (const Borrow& b : borrows_) per_borrower[b.borrower] += b.amount;
    sources_.clear();
    borrows_.clear();
    std::vector<Pool::Revocation> out;
    for (const auto& [borrower, amount] : per_borrower)
      out.push_back({borrower, amount});
    return out;
  }

  void set_quota(int tenant, const Resources& cap) {
    pool_->set_tenant_quota(tenant, cap);
    caps_[tenant] = cap;
  }

  // ---- the operations ----

  Resources pick_volume(double max_cpu, double max_mem) {
    Resources r{rng_.uniform(0.0, max_cpu), rng_.uniform(0.0, max_mem)};
    // One axis zero now and then: grants and snapshots skip zero volumes.
    const double z = rng_.uniform();
    if (z < 0.1) {
      r.cpu = 0.0;
    } else if (z < 0.2) {
      r.mem = 0.0;
    }
    return r;
  }

  InvocationId pick_source() {
    return static_cast<InvocationId>(rng_.uniform_int(0, kSources - 1));
  }
  InvocationId pick_borrower() {
    return static_cast<InvocationId>(1000 +
                                     rng_.uniform_int(0, kBorrowers - 1));
  }

  void step(int op) {
    // The clock moves forward, sometimes not at all.
    if (rng_.bernoulli(0.7)) now_ += rng_.uniform(0.0, 0.5);
    const double r = rng_.uniform();
    if (r < 0.34) {
      const InvocationId source = pick_source();
      Resources volume = pick_volume(4.0, 512.0);
      if (rng_.bernoulli(0.02)) volume.mem = -volume.mem - 1.0;  // ignored
      SimTime expiry = now_ + rng_.uniform(0.0, 60.0);
      // Half the expiries sit on a 5 s grid, so sources tie and the
      // timeliness order must break ties by ascending id.
      if (rng_.bernoulli(0.5)) expiry = 5.0 * std::ceil(expiry / 5.0);
      if (sources_.count(source) != 0) ++merges_;
      model_put(source, volume, expiry);
      pool_->put(source, volume, expiry, now_);
    } else if (r < 0.70) {
      Resources desired = pick_volume(6.0, 1024.0);
      if (rng_.bernoulli(0.05)) desired.cpu = -1.0;  // clamped to zero
      const InvocationId borrower = pick_borrower();
      Pool::GetOptions opt;
      opt.timeliness_order = rng_.bernoulli(0.5);
      ++(opt.timeliness_order ? timeliness_gets_ : blind_gets_);
      if (rng_.bernoulli(0.5)) {
        opt.mem_expiry_floor = now_ + rng_.uniform(0.0, 60.0);
        ++floored_gets_;
      }
      opt.tenant = static_cast<int>(rng_.uniform_int(0, kTenants - 1));
      if (caps_.count(opt.tenant) == 0) ++unrestricted_gets_;
      const auto want = model_get(desired, borrower, opt);
      const auto got = pool_->get(desired, borrower, now_, opt);
      compare_grants(op, got, want);
    } else if (r < 0.83) {
      const InvocationId source = pick_source();
      const auto want = model_preempt_source(source);
      const auto got = pool_->preempt_source(source, now_);
      if (!want.empty()) ++revoking_preempts_;
      compare_revocations(op, "preempt_source", got, want);
    } else if (r < 0.97) {
      const InvocationId borrower = pick_borrower();
      if (model_reharvest(borrower) > 0) ++returning_reharvests_;
      pool_->reharvest(borrower, now_);
    } else if (r < 0.985) {
      // Raise or lower a cap, never below what the tenant already holds:
      // the pool audits every mutation against the caps.
      const int tenant = static_cast<int>(rng_.uniform_int(1, 2));
      set_quota(tenant, model_outstanding(tenant) + pick_volume(6.0, 1200.0));
    } else {
      const auto want = model_preempt_all();
      const auto got = pool_->preempt_all(now_);
      if (!want.empty()) ++revoking_preempt_alls_;
      compare_revocations(op, "preempt_all", got, want);
    }
  }

  // ---- the comparisons ----

  void compare_grants(int op, const std::vector<Pool::Grant>& got,
                      const std::vector<Pool::Grant>& want) {
    if (got.size() != want.size()) {
      fail(op, "get returned " + std::to_string(got.size()) +
                   " grants, model " + std::to_string(want.size()));
      return;
    }
    for (size_t i = 0; i < got.size(); ++i)
      if (got[i].source != want[i].source ||
          got[i].amount != want[i].amount ||
          got[i].est_expiry != want[i].est_expiry)
        fail(op, "grant " + std::to_string(i) + ": source " +
                     std::to_string(got[i].source) + " " +
                     str(got[i].amount) + ", model source " +
                     std::to_string(want[i].source) + " " +
                     str(want[i].amount));
  }

  void compare_revocations(int op, const char* what,
                           const std::vector<Pool::Revocation>& got,
                           const std::vector<Pool::Revocation>& want) {
    if (got.size() != want.size()) {
      fail(op, std::string(what) + " returned " + std::to_string(got.size()) +
                   " revocations, model " + std::to_string(want.size()));
      return;
    }
    for (size_t i = 0; i < got.size(); ++i)
      if (got[i].borrower != want[i].borrower ||
          got[i].amount != want[i].amount)
        fail(op, std::string(what) + " revocation " + std::to_string(i) +
                     ": borrower " + std::to_string(got[i].borrower) + " " +
                     str(got[i].amount) + ", model borrower " +
                     std::to_string(want[i].borrower) + " " +
                     str(want[i].amount));
  }

  void compare(int op) {
    if (pool_->idle_total() != model_idle_total())
      fail(op, "idle_total " + str(pool_->idle_total()) + ", model " +
                   str(model_idle_total()));
    if (pool_->entry_count() != sources_.size())
      fail(op, "entry_count " + std::to_string(pool_->entry_count()) +
                   ", model " + std::to_string(sources_.size()));
    if (pool_->outstanding_borrows() != borrows_.size())
      fail(op, "outstanding_borrows " +
                   std::to_string(pool_->outstanding_borrows()) + ", model " +
                   std::to_string(borrows_.size()));
    for (int t = 0; t < kTenants; ++t)
      if (pool_->tenant_outstanding(t) != model_outstanding(t))
        fail(op, "tenant_outstanding(" + std::to_string(t) + ") " +
                     str(pool_->tenant_outstanding(t)) + ", model " +
                     str(model_outstanding(t)));

    // snapshot() and idle_integrals() both advance the accrual clock.
    const PoolStatus status = pool_->snapshot(now_);
    model_accrue(now_);
    std::vector<PoolEntrySnapshot> want;
    for (const auto& [id, s] : sources_)
      if (!s.idle.is_zero()) want.push_back({s.idle, s.expiry});
    bool same = status.taken_at == now_ && status.entries.size() == want.size();
    for (size_t i = 0; same && i < want.size(); ++i)
      same = status.entries[i].volume == want[i].volume &&
             status.entries[i].est_expiry == want[i].est_expiry;
    if (!same)
      fail(op, "snapshot: " + std::to_string(status.entries.size()) +
                   " entries, model " + std::to_string(want.size()));
    const auto integrals = pool_->idle_integrals(now_);
    if (integrals.cpu_core_seconds != idle_cpu_secs_ ||
        integrals.mem_mb_seconds != idle_mem_secs_)
      fail(op, "idle integrals differ from the model");

    // The whole ledger: entries in ascending source order with their
    // harvested volume, borrows in insertion order.
    pool_->debug_state(debug_);
    same = debug_.entries.size() == sources_.size();
    auto src = sources_.begin();
    for (size_t i = 0; same && i < debug_.entries.size(); ++i, ++src) {
      const auto& e = debug_.entries[i];
      same = e.source == src->first && e.idle == src->second.idle &&
             e.harvested == src->second.harvested &&
             e.est_expiry == src->second.expiry;
    }
    if (!same) fail(op, "debug_state entries differ from the model");
    same = debug_.borrows.size() == borrows_.size();
    for (size_t i = 0; same && i < borrows_.size(); ++i) {
      const auto& b = debug_.borrows[i];
      same = b.source == borrows_[i].source &&
             b.borrower == borrows_[i].borrower &&
             b.amount == borrows_[i].amount &&
             b.est_expiry == borrows_[i].expiry &&
             b.tenant == borrows_[i].tenant;
    }
    if (!same) fail(op, "debug_state borrows differ from the model");
  }

  void fail(int op, const std::string& what) {
    if (!failure_.empty()) return;
    std::ostringstream os;
    os << "op " << op << " (t=" << now_ << "): " << what;
    failure_ = os.str();
  }

  util::Rng rng_;
  std::unique_ptr<Pool> pool_;
  Pool::DebugState debug_;
  std::map<InvocationId, Source> sources_;
  std::vector<Borrow> borrows_;
  std::map<int, Resources> caps_;
  SimTime now_ = 0.0;
  double idle_cpu_secs_ = 0.0;
  double idle_mem_secs_ = 0.0;
  SimTime last_accrual_ = 0.0;
  long merges_ = 0;
  long timeliness_gets_ = 0;
  long blind_gets_ = 0;
  long floored_gets_ = 0;
  long clamped_gets_ = 0;
  long unrestricted_gets_ = 0;
  long revoking_preempts_ = 0;
  long returning_reharvests_ = 0;
  long revoking_preempt_alls_ = 0;
  std::string failure_;
};

class HarvestPoolModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HarvestPoolModel, RandomOperationsMatchTheModel) {
  PoolHarness h(GetParam());
  h.run(kOps, /*episode=*/2500);
  ASSERT_TRUE(h.ok()) << h.failure();
  // The mix really merged puts, ran every get flavour, clamped to a quota,
  // revoked grants and returned them.
  EXPECT_GT(h.merges(), 1000);
  EXPECT_GT(h.timeliness_gets(), 1000);
  EXPECT_GT(h.blind_gets(), 1000);
  EXPECT_GT(h.floored_gets(), 1000);
  EXPECT_GT(h.clamped_gets(), 800);
  EXPECT_GT(h.unrestricted_gets(), 1000);
  EXPECT_GT(h.revoking_preempts(), 250);
  EXPECT_GT(h.returning_reharvests(), 400);
  EXPECT_GT(h.revoking_preempt_alls(), 90);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarvestPoolModel,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace libra::core
