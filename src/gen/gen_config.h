// Configuration of the synthetic Azure-style workload generator (§8.2.2 at
// planet scale): aggregate arrival rate with a diurnal sinusoidal envelope,
// Zipf function popularity over a large synthetic catalog, Poisson + on/off
// correlated burst episodes, and heavy-tailed per-invocation work/memory
// marginals. Mirrors EngineConfig's validate-up-front style: a bad config
// throws before anything is generated.
#pragma once

#include <cstddef>
#include <cstdint>

namespace libra::gen {

struct GenConfig {
  /// Distinct functions in the synthetic catalog (Azure traces span tens of
  /// thousands; popularity is Zipf so most are cold).
  int functions = 10000;
  /// Aggregate BASE arrival rate, requests per minute, before the diurnal
  /// envelope and burst episodes are applied.
  double rpm = 60000.0;
  /// Arrival window, seconds. No arrival is emitted at or past `duration`.
  double duration = 600.0;
  uint64_t seed = 42;

  /// Zipf popularity exponent: P(f) proportional to 1/(f+1)^zipf_s.
  /// 0 = uniform popularity.
  double zipf_s = 1.05;

  /// Diurnal envelope: rate(t) = base * (1 + amplitude * sin(2*pi*t/period
  /// + phase)). Amplitude in [0, 1) keeps the rate strictly positive.
  double diurnal_amplitude = 0.3;
  double diurnal_period = 3600.0;
  double diurnal_phase = 0.0;

  /// On/off correlated bursts: episodes arrive Poisson at this rate (per
  /// minute); each episode replays one Zipf-drawn function as a rapid train.
  double burst_episodes_per_min = 3.0;
  /// Mean arrivals per episode (1 + Poisson(mean - 1)).
  double burst_size_mean = 8.0;
  /// Mean intra-episode inter-arrival gap, seconds (exponential).
  double burst_spacing = 0.05;

  /// Target mean execution work per invocation, core-seconds. Per-function
  /// scales are lognormal around this, so the marginal is heavy-tailed.
  double mean_work = 1.0;

  /// Throws std::invalid_argument on the first violated constraint, and
  /// when the expected invocation count reaches 2^53.
  void validate() const;

  /// Rough expected invocation count (base arrivals + burst contribution).
  /// Defined for a config that passed validate().
  size_t expected_invocations() const;
};

}  // namespace libra::gen
