#include "gen/gen_config.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace libra::gen {

namespace {

/// The error for a double knob that is NaN, infinite or outside `rule`.
std::invalid_argument bad_knob(const char* knob, const char* rule,
                               double value) {
  return std::invalid_argument(std::string("GenConfig: ") + knob +
                               " must be finite and " + rule + ", got " +
                               std::to_string(value));
}

/// expected_invocations() casts the expected count to size_t; from 2^53 on a
/// double no longer holds every integer, and far past it the cast is
/// undefined.
constexpr double kMaxExpectedInvocations = 9007199254740992.0;  // 2^53

/// Base arrivals plus the burst contribution, as a double. The burst term
/// counts only when episodes are on, so an unchecked burst_size_mean never
/// reaches the sum.
double expected_count(const GenConfig& cfg) {
  const double base = cfg.rpm / 60.0 * cfg.duration;
  const double bursts = cfg.burst_episodes_per_min > 0.0
                            ? cfg.burst_episodes_per_min / 60.0 *
                                  cfg.duration * cfg.burst_size_mean
                            : 0.0;
  return base + bursts;
}

}  // namespace

void GenConfig::validate() const {
  // Every double knob must be finite as well as in range: an infinite rate
  // or window sizes the stream without bound.
  if (functions < 1)
    throw std::invalid_argument("GenConfig: functions must be >= 1, got " +
                                std::to_string(functions));
  if (!(std::isfinite(rpm) && rpm > 0.0)) throw bad_knob("rpm", "> 0", rpm);
  if (!(std::isfinite(duration) && duration > 0.0))
    throw bad_knob("duration", "> 0", duration);
  if (!(std::isfinite(zipf_s) && zipf_s >= 0.0))
    throw bad_knob("zipf_s", ">= 0", zipf_s);
  if (!(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0))
    throw bad_knob("diurnal_amplitude", "in [0, 1)", diurnal_amplitude);
  if (!(std::isfinite(diurnal_period) && diurnal_period > 0.0))
    throw bad_knob("diurnal_period", "> 0", diurnal_period);
  if (!std::isfinite(diurnal_phase))
    throw std::invalid_argument("GenConfig: diurnal_phase must be finite");
  if (!(std::isfinite(burst_episodes_per_min) && burst_episodes_per_min >= 0.0))
    throw bad_knob("burst_episodes_per_min", ">= 0", burst_episodes_per_min);
  if (burst_episodes_per_min > 0.0) {
    if (!(std::isfinite(burst_size_mean) && burst_size_mean >= 1.0))
      throw bad_knob("burst_size_mean", ">= 1 when episodes are enabled",
                     burst_size_mean);
    if (!(std::isfinite(burst_spacing) && burst_spacing > 0.0))
      throw bad_knob("burst_spacing", "> 0 when episodes are enabled",
                     burst_spacing);
  }
  if (!(std::isfinite(mean_work) && mean_work > 0.0))
    throw bad_knob("mean_work", "> 0", mean_work);
  const double expected = expected_count(*this);
  if (!(expected < kMaxExpectedInvocations)) {
    char count[32];
    std::snprintf(count, sizeof(count), "%g", expected);
    throw std::invalid_argument(
        std::string("GenConfig: expected invocation count ") + count +
        " (rpm / 60 * duration plus bursts) must be < 2^53");
  }
}

size_t GenConfig::expected_invocations() const {
  return static_cast<size_t>(expected_count(*this));
}

}  // namespace libra::gen
