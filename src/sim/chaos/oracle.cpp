#include "sim/chaos/oracle.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "core/harvest_pool.h"
#include "core/libra_policy.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "gen/synthetic_source.h"
#include "sim/engine.h"
#include "util/audit.h"
#include "workload/materialized_source.h"

namespace libra::chaos {

namespace {

/// RAII capture of LIBRA_AUDIT_CHECK failures: suppresses the abort, counts
/// violations and keeps the first diagnostic for the verdict detail.
class AuditCapture {
 public:
  AuditCapture() {
    prev_ = util::audit::set_failure_handler(
        [this](const util::audit::Diagnostic& d) {
          ++count_;
          if (first_.empty()) first_ = d.to_string();
        });
  }
  ~AuditCapture() { util::audit::set_failure_handler(prev_); }
  AuditCapture(const AuditCapture&) = delete;
  AuditCapture& operator=(const AuditCapture&) = delete;

  long count() const { return count_; }
  const std::string& first() const { return first_; }

 private:
  util::audit::FailureHandler prev_;
  long count_ = 0;
  std::string first_;
};

/// Audit hook that forwards to the invariant auditor and, when armed, plants
/// the scenario's seeded pool corruption at (or after) the requested engine
/// event — then audits the pool immediately so the violation is caught at
/// the moment of injection, not whenever the next sweep happens to run.
class InjectingHook final : public sim::EngineAuditHook {
 public:
  InjectingHook(sim::EngineAuditHook* inner, core::LibraPolicy* policy,
                const InjectSpec& spec)
      : inner_(inner), policy_(policy), spec_(spec) {}

  void on_engine_event(sim::EngineApi& api,
                       const sim::EngineEvent& ev) override {
    ++events_;
    if (armed() && !fired_ && events_ >= spec_.at_event) fire(api.now());
    if (inner_ != nullptr) inner_->on_engine_event(api, ev);
  }

  bool armed() const {
    return policy_ != nullptr && spec_.kind != InjectKind::kNone;
  }
  bool fired() const { return fired_; }

  void fire(sim::SimTime now) {
    fired_ = true;
    core::HarvestResourcePool& pool = policy_->pool(0);
    if (spec_.kind == InjectKind::kConservation) {
      pool.corrupt_for_audit_test(/*source=*/1, {1.0, 64.0});
    } else {
      // Far above any quota the fuzzer registers, so the per-tenant audit
      // must fire for tenant 0.
      pool.corrupt_tenant_for_audit_test(/*source=*/1, /*borrower=*/2,
                                         /*tenant=*/0, {1000.0, 1.0e6});
    }
    pool.audit_now(now);
  }

 private:
  sim::EngineAuditHook* inner_;
  core::LibraPolicy* policy_;
  InjectSpec spec_;
  long events_ = 0;
  bool fired_ = false;
};

std::vector<sim::Invocation> materialize_trace(
    const Scenario& sc,
    const std::shared_ptr<const sim::FunctionCatalog>& catalog) {
  libra::gen::SyntheticSource source(sc.gen, catalog);
  std::vector<sim::Invocation> trace;
  trace.reserve(source.size_hint());
  while (source.peek_arrival().has_value()) {
    trace.push_back(source.next());
    // Deterministic priority-class assignment; tenant 0 always exists.
    trace.back().tenant = static_cast<int>(trace.back().func) % sc.num_tenants;
  }
  return trace;
}

struct LegResult {
  sim::RunMetrics metrics;
  long audit_failures = 0;
  std::string first_diag;
};

LegResult run_leg(const Scenario& sc, std::vector<sim::Invocation> trace,
                  const std::shared_ptr<const sim::FunctionCatalog>& catalog,
                  bool libra, bool with_injection, int controllers) {
  AuditCapture capture;
  analysis::InvariantAuditor auditor(analysis::InvariantAuditorConfig{1});
  std::shared_ptr<sim::Policy> policy;
  core::LibraPolicy* libra_policy = nullptr;
  if (libra) {
    auto lp = exp::make_faulty_libra(catalog, exp::PlatformTuning{},
                                     sc.plan.prediction_faults,
                                     /*with_trust=*/false,
                                     /*with_safeguard=*/true);
    for (const auto& [tenant, cap] : sc.tenant_quotas)
      lp->set_tenant_quota(tenant, cap);
    libra_policy = lp.get();
    policy = lp;
  } else {
    policy = exp::make_platform(exp::PlatformKind::kDefault, catalog);
  }
  auditor.attach_policy(libra_policy);
  InjectingHook hook(&auditor, with_injection ? libra_policy : nullptr,
                     sc.inject);
  sim::EngineConfig cfg = sc.engine_config();
  cfg.control.num_controllers = controllers;
  cfg.audit_hook = &hook;
  sim::Engine engine(cfg, policy);

  LegResult res;
  workload::MaterializedSource source(std::move(trace));
  res.metrics = engine.run(source);
  // A run too short to reach at_event still proves the detection path: plant
  // the corruption now and re-audit.
  if (hook.armed() && !hook.fired()) hook.fire(res.metrics.makespan_end);
  res.audit_failures = capture.count();
  res.first_diag = capture.first();
  return res;
}

Verdict fail(const char* cls, std::string detail) {
  Verdict v;
  v.ok = false;
  v.failure = cls;
  v.detail = std::move(detail);
  return v;
}

/// Ledger identities over one leg's metrics; nullopt-style empty string on
/// success, else the violated identity.
std::string accounting_violation(const sim::RunMetrics& m, size_t admitted,
                                 const sim::EngineConfig& cfg) {
  std::ostringstream os;
  if (m.finalized_records != static_cast<long>(admitted)) {
    os << "finalized_records=" << m.finalized_records << " != admitted="
       << admitted;
    return os.str();
  }
  const long terminal_lost =
      m.finalized_records - m.finalized_completed - m.finalized_incomplete;
  if (terminal_lost != m.lost_invocations) {
    os << "completed=" << m.finalized_completed << " + lost="
       << m.lost_invocations << " + incomplete=" << m.finalized_incomplete
       << " != admitted=" << m.finalized_records;
    return os.str();
  }
  if (m.oom_terminal_losses > m.lost_invocations) {
    os << "oom_terminal_losses=" << m.oom_terminal_losses
       << " > lost_invocations=" << m.lost_invocations;
    return os.str();
  }
  for (const auto& rec : m.invocations) {
    if (rec.fault_retries > cfg.max_fault_retries) {
      os << "invocation " << rec.id << " fault_retries=" << rec.fault_retries
         << " overdrew the budget max_fault_retries=" << cfg.max_fault_retries;
      return os.str();
    }
    if (rec.oom_retries > cfg.max_oom_retries) {
      os << "invocation " << rec.id << " oom_retries=" << rec.oom_retries
         << " overdrew the budget max_oom_retries=" << cfg.max_oom_retries;
      return os.str();
    }
    if (rec.lost && rec.completed) {
      os << "invocation " << rec.id << " both lost and completed";
      return os.str();
    }
  }
  const double goodput = m.goodput();
  if (!std::isfinite(goodput) || goodput < 0.0 || goodput > 1.0) {
    os << "goodput=" << goodput << " outside [0, 1]";
    return os.str();
  }
  return {};
}

}  // namespace

void arm_injection(Scenario& sc, InjectKind kind, long at_event) {
  sc.inject.kind = kind;
  sc.inject.at_event = at_event;
  // A quota violation is only auditable when a quota exists to violate.
  if (kind == InjectKind::kTenantQuota &&
      sc.tenant_quotas.find(0) == sc.tenant_quotas.end())
    sc.tenant_quotas[0] = {4.0, 1024.0};
}

Verdict check_scenario(const Scenario& sc) {
  sc.validate();
  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      libra::gen::synthetic_catalog(sc.gen));
  const std::vector<sim::Invocation> trace = materialize_trace(sc, catalog);

  // Leg A: instrumented Libra, injection armed.
  const LegResult a = run_leg(sc, trace, catalog, /*libra=*/true,
                              /*with_injection=*/true, sc.num_controllers);
  if (a.audit_failures > 0) {
    std::ostringstream os;
    os << a.audit_failures << " audit failure(s); first: " << a.first_diag;
    return fail(kFailAudit, os.str());
  }

  const sim::EngineConfig cfg_a = sc.engine_config();
  if (std::string v = accounting_violation(a.metrics, trace.size(), cfg_a);
      !v.empty())
    return fail(kFailAccounting, v);

  // Legs B/C: the controller differential (DESIGN.md §5k). On a copy with
  // every divergence source stripped — fresh pass-through gossip, zero
  // gossip fault probabilities, no injection — sharding the catalog across
  // controllers_b front ends with work stealing enabled must reproduce the
  // single-controller digest bit-for-bit.
  if (sc.controllers_b != 1) {
    Scenario stripped = sc;
    stripped.gossip_period = 0.0;
    stripped.gossip_fanout = 0;
    stripped.profile.gossip_drop_prob = 0.0;
    stripped.profile.gossip_delay_prob = 0.0;
    stripped.inject.kind = InjectKind::kNone;
    // Leg A already is the stripped single-controller run when the scenario
    // carries no divergence knobs — reuse its digest instead of re-running.
    const bool a_is_stripped =
        sc.num_controllers == 1 && sc.gossip_period == 0.0 &&
        sc.gossip_fanout == 0 && sc.profile.gossip_drop_prob == 0.0 &&
        sc.profile.gossip_delay_prob == 0.0 &&
        sc.inject.kind == InjectKind::kNone;
    const uint64_t db =
        a_is_stripped
            ? exp::run_metrics_digest(a.metrics)
            : exp::run_metrics_digest(
                  run_leg(stripped, trace, catalog, /*libra=*/true,
                          /*with_injection=*/false, /*controllers=*/1)
                      .metrics);
    const LegResult c =
        run_leg(stripped, trace, catalog, /*libra=*/true,
                /*with_injection=*/false, stripped.controllers_b);
    const uint64_t dc = exp::run_metrics_digest(c.metrics);
    if (db != dc) {
      std::ostringstream os;
      os << "controllers 1 vs " << stripped.controllers_b << ": "
         << exp::digest_hex(db) << " != " << exp::digest_hex(dc);
      return fail(kFailDigest, os.str());
    }
  }

  // Leg D: the default platform as the cross-scheduler sanity reference.
  const LegResult d = run_leg(sc, trace, catalog, /*libra=*/false,
                              /*with_injection=*/false, sc.num_controllers);
  if (d.audit_failures > 0) {
    std::ostringstream os;
    os << "default-platform leg: " << d.audit_failures
       << " audit failure(s); first: " << d.first_diag;
    return fail(kFailAudit, os.str());
  }
  if (std::string v = accounting_violation(d.metrics, trace.size(), cfg_a);
      !v.empty())
    return fail(kFailAccounting, "default-platform leg: " + v);

  // Failure-free scenarios (no outages, no cold-start windows, inactive
  // profile) must not lose or strand work on either platform — the loss
  // machinery has nothing legitimate to do.
  const bool failure_free = sc.plan.outages.empty() &&
                            sc.plan.cold_start_failures.empty() &&
                            !sc.profile.active();
  if (failure_free) {
    for (const auto* leg : {&a, &d}) {
      if (leg->metrics.lost_invocations != 0 ||
          leg->metrics.finalized_incomplete != 0) {
        std::ostringstream os;
        os << (leg == &a ? "libra" : "default") << " lost "
           << leg->metrics.lost_invocations << " / stranded "
           << leg->metrics.finalized_incomplete
           << " invocations in a failure-free scenario";
        return fail(kFailGoodput, os.str());
      }
    }
  }

  return Verdict{};
}

}  // namespace libra::chaos
