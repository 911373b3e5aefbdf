// Per-function trust circuit breaker + adaptive harvest margins (the
// misprediction-resilience layer's decision core). Libra's safety story
// (§5.2, §7) assumes predictions are roughly right; this manager tracks the
// evidence per function — safeguard triggers, OOM kills, relative
// under-prediction at completion — and demotes repeat offenders through a
// circuit-breaker state machine:
//
//   CLOSED     ML predictions trusted; harvesting at the adaptive margin.
//   OPEN       quarantine: no harvesting from the function, demand padded to
//              the user allocation. Entered after `demote_strikes` strikes
//              (or any strike during probation); left after `open_cooldown`.
//   HALF_OPEN  probation: served from the conservative histogram fallback
//              (§4.3.2); `probation_clean` clean completions re-promote to
//              CLOSED, any strike re-opens immediately.
//
// The adaptive margin replaces the static harvest_headroom knob: a streaming
// quantile tracker over the last `error_window` relative under-prediction
// errors yields the p95 base margin; each strike adds a boost that decays
// exponentially with half-life `margin_decay_halflife`.
//
// Threading: the manager takes no lock. Predictions, completions, monitor
// ticks and OOM kills are engine events, so only the single-threaded event
// loop reaches it (DESIGN.md §5d, "Which state locks").
#pragma once

#include <unordered_map>
#include <vector>

#include "sim/types.h"

namespace libra::core {

enum class TrustState { kClosed, kHalfOpen, kOpen };

struct TrustConfig {
  /// Strikes (safeguard trigger, OOM kill, gross completion error) before a
  /// CLOSED function is demoted to quarantine.
  static constexpr int demote_strikes = 3;
  /// Clean completions on probation before re-promotion to CLOSED.
  static constexpr int probation_clean = 4;
  /// Seconds a function stays quarantined before probation starts.
  static constexpr double open_cooldown = 60.0;
  /// Relative under-prediction ((observed - predicted) / predicted) above
  /// which a completion counts as a strike rather than a clean sample.
  static constexpr double error_strike_threshold = 0.5;
  /// Ring size of the streaming error-quantile tracker.
  static constexpr int error_window = 64;
  /// Quantile of the error window used as the base harvest margin (p95).
  static constexpr double error_quantile = 95.0;
  /// Harvest-margin clamp and the per-strike widening boost.
  static constexpr double margin_min = 0.15;
  static constexpr double margin_max = 1.0;
  static constexpr double margin_strike_boost = 0.25;
  /// Seconds for the strike boost to halve.
  static constexpr double margin_decay_halflife = 120.0;
};

static_assert(TrustConfig::demote_strikes >= 1 &&
              TrustConfig::probation_clean >= 1 &&
              TrustConfig::error_window >= 1);
static_assert(TrustConfig::open_cooldown > 0.0 &&
              TrustConfig::error_strike_threshold > 0.0 &&
              TrustConfig::margin_decay_halflife > 0.0 &&
              TrustConfig::margin_strike_boost >= 0.0);
static_assert(TrustConfig::error_quantile >= 0.0 &&
              TrustConfig::error_quantile <= 100.0);
static_assert(0.0 <= TrustConfig::margin_min &&
              TrustConfig::margin_min < TrustConfig::margin_max);

class TrustManager {
 public:
  /// The safeguard fired for an invocation of `func`. Returns true when this
  /// strike demoted the function to quarantine (caller must then enforce the
  /// no-pool-entries-from-quarantined-functions invariant).
  bool record_safeguard(sim::FunctionId func, sim::SimTime now);

  /// The container of an invocation of `func` was OOM-killed. Same demotion
  /// contract as record_safeguard.
  bool record_oom(sim::FunctionId func, sim::SimTime now);

  /// An invocation completed with the given relative under-prediction error
  /// (max over axes, 0 when the prediction covered the observed peak). Feeds
  /// the quantile tracker; errors above error_strike_threshold strike,
  /// anything else counts as clean (advancing probation / forgiving old
  /// strikes). Returns true when the sample demoted the function.
  bool record_completion(sim::FunctionId func, double rel_underprediction,
                         sim::SimTime now);

  /// Effective state at `now` (applies the OPEN -> HALF_OPEN cooldown
  /// transition lazily).
  TrustState state(sim::FunctionId func, sim::SimTime now) const;

  bool quarantined(sim::FunctionId func, sim::SimTime now) const {
    return state(func, now) == TrustState::kOpen;
  }

  /// Adaptive harvest margin for `func` at `now`:
  ///   clamp(max(margin_min, p{error_quantile}(errors)) + decayed boost,
  ///         margin_min, margin_max)
  double harvest_margin(sim::FunctionId func, sim::SimTime now) const;

  long demotions() const { return demotions_; }
  long promotions() const { return promotions_; }
  /// Transitions into quarantine so far: every demotion plus every
  /// quarantine_for_audit_test. The invariant auditor re-checks every pool
  /// when this moves. Leaving quarantine (the cooldown's lazy OPEN ->
  /// HALF_OPEN) only relaxes the no-harvest invariant, so it is not counted.
  long quarantine_transitions() const { return quarantine_transitions_; }
  /// Functions whose effective state at `now` is quarantine.
  long quarantined_count(sim::SimTime now) const;

  /// Test-only (corrupt_for_audit_test idiom): forces `func` straight into
  /// quarantine WITHOUT the policy-side harvest pullback, seeding exactly the
  /// violation the invariant auditor's quarantine sweep must catch.
  void quarantine_for_audit_test(sim::FunctionId func, sim::SimTime now);

 private:
  struct FuncTrust {
    TrustState stored = TrustState::kClosed;
    sim::SimTime opened_at = 0.0;
    int strikes = 0;
    int clean_streak = 0;
    /// Decaying strike boost: value at `boost_at`, halving every
    /// margin_decay_halflife seconds after.
    double boost = 0.0;
    sim::SimTime boost_at = 0.0;
    /// Ring of the last error_window relative under-prediction errors.
    std::vector<double> errors;
    size_t errors_next = 0;
  };

  /// Stored state folded through the cooldown clock — the single source of
  /// truth for "what tier is this function on right now".
  TrustState effective_state(const FuncTrust& s, sim::SimTime now) const;
  /// Writes the lazy OPEN -> HALF_OPEN transition back into the entry.
  void materialize(FuncTrust& s, sim::SimTime now);
  /// Shared strike path for all three evidence sources.
  bool strike(sim::FunctionId func, sim::SimTime now);
  double decayed_boost(const FuncTrust& s, sim::SimTime now) const;

  static constexpr TrustConfig cfg_{};
  std::unordered_map<sim::FunctionId, FuncTrust> functions_;
  /// harvest_margin's copy of one error ring for nth_element, reused by
  /// every call (the manager takes no lock, see the header comment).
  mutable std::vector<double> quantile_scratch_;
  long demotions_ = 0;
  long promotions_ = 0;
  long quarantine_transitions_ = 0;
};

}  // namespace libra::core
