#include "core/trust_manager.h"

#include <algorithm>
#include <cmath>

namespace libra::core {

using sim::FunctionId;
using sim::SimTime;

TrustState TrustManager::effective_state(const FuncTrust& s,
                                         SimTime now) const {
  if (s.stored == TrustState::kOpen && now - s.opened_at >= cfg_.open_cooldown)
    return TrustState::kHalfOpen;
  return s.stored;
}

void TrustManager::materialize(FuncTrust& s, SimTime now) {
  if (s.stored == TrustState::kOpen &&
      effective_state(s, now) == TrustState::kHalfOpen) {
    s.stored = TrustState::kHalfOpen;
    s.clean_streak = 0;
  }
}

double TrustManager::decayed_boost(const FuncTrust& s, SimTime now) const {
  if (s.boost <= 0.0) return 0.0;
  const double age = std::max(0.0, now - s.boost_at);
  return s.boost * std::exp2(-age / cfg_.margin_decay_halflife);
}

bool TrustManager::strike(FunctionId func, SimTime now) {
  FuncTrust& s = functions_[func];
  materialize(s, now);
  // Widen the margin immediately: the boost survives demotion/promotion so a
  // freshly re-promoted function is still harvested cautiously.
  s.boost = decayed_boost(s, now) + cfg_.margin_strike_boost;
  s.boost_at = now;
  s.clean_streak = 0;
  switch (s.stored) {
    case TrustState::kClosed:
      if (++s.strikes >= cfg_.demote_strikes) {
        s.stored = TrustState::kOpen;
        s.opened_at = now;
        s.strikes = 0;
        ++demotions_;
        ++quarantine_transitions_;
        return true;
      }
      return false;
    case TrustState::kHalfOpen:
      // Any strike on probation re-opens immediately.
      s.stored = TrustState::kOpen;
      s.opened_at = now;
      ++demotions_;
      ++quarantine_transitions_;
      return true;
    case TrustState::kOpen:
      // Evidence from an in-flight invocation admitted before quarantine:
      // restart the cooldown clock.
      s.opened_at = now;
      return false;
  }
  return false;
}

bool TrustManager::record_safeguard(FunctionId func, SimTime now) {
  return strike(func, now);
}

bool TrustManager::record_oom(FunctionId func, SimTime now) {
  return strike(func, now);
}

bool TrustManager::record_completion(FunctionId func,
                                     double rel_underprediction, SimTime now) {
  const double err = std::max(0.0, rel_underprediction);
  FuncTrust& s = functions_[func];
  materialize(s, now);
  if (s.errors.size() < static_cast<size_t>(cfg_.error_window)) {
    s.errors.push_back(err);
  } else {
    s.errors[s.errors_next] = err;
    s.errors_next = (s.errors_next + 1) % s.errors.size();
  }
  if (err <= cfg_.error_strike_threshold) {
    // Clean sample: advance probation, forgive one old strike.
    s.strikes = std::max(0, s.strikes - 1);
    if (s.stored == TrustState::kHalfOpen &&
        ++s.clean_streak >= cfg_.probation_clean) {
      s.stored = TrustState::kClosed;
      s.clean_streak = 0;
      ++promotions_;
    }
    return false;
  }
  return strike(func, now);
}

TrustState TrustManager::state(FunctionId func, SimTime now) const {
  auto it = functions_.find(func);
  if (it == functions_.end()) return TrustState::kClosed;
  return effective_state(it->second, now);
}

double TrustManager::harvest_margin(FunctionId func, SimTime now) const {
  auto it = functions_.find(func);
  if (it == functions_.end()) return cfg_.margin_min;
  const FuncTrust& s = it->second;
  double base = cfg_.margin_min;
  if (!s.errors.empty()) {
    // p95 over a <= error_window ring: nth_element on a copy in the reused
    // scratch buffer, so no call allocates once it has grown. The tracker is
    // deliberately windowed — ancient errors should stop taxing the margin.
    std::vector<double>& sorted = quantile_scratch_;
    sorted.assign(s.errors.begin(), s.errors.end());
    const double rank = cfg_.error_quantile / 100.0 *
                        static_cast<double>(sorted.size() - 1);
    const auto k = static_cast<size_t>(std::llround(rank));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(k),
                     sorted.end());
    base = std::max(base, sorted[k]);
  }
  return std::clamp(base + decayed_boost(s, now), cfg_.margin_min,
                    cfg_.margin_max);
}

void TrustManager::quarantine_for_audit_test(FunctionId func, SimTime now) {
  FuncTrust& s = functions_[func];
  s.stored = TrustState::kOpen;
  s.opened_at = now;
  ++quarantine_transitions_;
}

long TrustManager::quarantined_count(SimTime now) const {
  long n = 0;
  // LIBRA_LINT_ALLOW(unordered-iteration): an integer count, the same in any order
  for (const auto& [func, s] : functions_)
    if (effective_state(s, now) == TrustState::kOpen) ++n;
  return n;
}

}  // namespace libra::core
