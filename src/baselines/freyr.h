// Freyr stand-in (§8.3 baseline 2). The original uses a DRL agent; per §9 the
// behavioural differences that matter for the comparison are:
//   1. no awareness of harvested-resource timeliness (blind pool ordering,
//      no expiry filtering for memory grants),
//   2. predictions that ignore input size (EWMA over past invocations),
//   3. a safeguard that only restores the user allocation for the NEXT
//      invocation instead of preemptively releasing at runtime.
// We reproduce exactly those three deltas on top of the shared harvesting
// machinery; DESIGN.md documents the substitution.
#pragma once

#include "core/libra_policy.h"

namespace libra::baselines {

inline core::LibraPolicyConfig freyr_config() {
  core::LibraPolicyConfig cfg;
  cfg.safeguard_enabled = true;  // it has a safeguard, just not a timely one
  cfg.safeguard_threshold = 0.8;
  cfg.harvest_headroom = 0.10;   // harvests more aggressively than Libra
  cfg.min_mem_floor = 96.0;
  cfg.timeliness_aware_pool = false;
  cfg.mem_expiry_filter = false;
  cfg.preemptive_release_on_safeguard = false;
  cfg.runtime_backfill = false;
  return cfg;
}

}  // namespace libra::baselines
