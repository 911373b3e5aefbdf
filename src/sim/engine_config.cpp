#include "sim/engine_config.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace libra::sim {

namespace {

// NaN-proof knob predicates: `!(x >= 0.0)` rejects NaN as well as negatives
// (any comparison against NaN is false), and std::isfinite rejects the infs
// that would silently disable a timer or stretch a backoff forever. These
// predicates double as the scenario fuzzer's validity oracle.

void require_finite_non_negative(double x, const char* what) {
  if (!std::isfinite(x) || !(x >= 0.0))
    throw std::invalid_argument(std::string("EngineConfig: ") + what +
                                " must be finite and >= 0, got " +
                                std::to_string(x));
}

void require_finite_positive(double x, const char* what) {
  if (!std::isfinite(x) || !(x > 0.0))
    throw std::invalid_argument(std::string("EngineConfig: ") + what +
                                " must be finite and > 0, got " +
                                std::to_string(x));
}

}  // namespace

void EngineConfig::validate() const {
  if (node_capacities.empty())
    throw std::invalid_argument(
        "EngineConfig: node_capacities is empty — configure at least one "
        "worker");
  for (size_t i = 0; i < node_capacities.size(); ++i) {
    const auto& cap = node_capacities[i];
    if (!std::isfinite(cap.cpu) || !std::isfinite(cap.mem) ||
        !(cap.cpu > 0.0) || !(cap.mem > 0.0))
      throw std::invalid_argument("EngineConfig: node " + std::to_string(i) +
                                  " has non-finite or non-positive capacity " +
                                  cap.to_string());
  }
  if (num_shards < 1)
    throw std::invalid_argument("EngineConfig: num_shards must be >= 1, got " +
                                std::to_string(num_shards));
  if (sched_workers != 1)
    throw std::invalid_argument("EngineConfig: sched_workers must be 1, got " +
                                std::to_string(sched_workers));
  require_finite_positive(placement_timeout, "placement_timeout");
  require_finite_non_negative(churn_horizon_pad, "churn_horizon_pad");
  require_finite_non_negative(spot_drain_notice, "spot_drain_notice");
  require_finite_non_negative(series_resolution, "series_resolution");
  control.validate();
  fault_plan.validate(node_capacities.size());
  fault_profile.validate();
}

}  // namespace libra::sim
