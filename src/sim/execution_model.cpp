#include "sim/execution_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace libra::sim {

double ExecutionModel::mem_penalty(const Resources& alloc,
                                   const DemandProfile& profile) const {
  if (profile.demand.mem <= 0) return 1.0;
  const double ratio = alloc.mem / profile.demand.mem;
  if (ratio >= 1.0) return 1.0;
  if (ratio <= 0.0) return 0.0;
  const double penalty = std::pow(ratio, kMemPenaltyGamma);
  return std::max(kMemPenaltyFloor, penalty);
}

double ExecutionModel::rate(const Resources& alloc,
                            const DemandProfile& profile) const {
  if (alloc.cpu <= 0.0) return 0.0;
  if (below_oom_floor(alloc, profile)) return 0.0;
  const double cores = std::min(alloc.cpu, profile.demand.cpu);
  return cores * mem_penalty(alloc, profile);
}

double ExecutionModel::exec_time(const Resources& alloc,
                                 const DemandProfile& profile) const {
  const double r = rate(alloc, profile);
  if (r <= 0.0) return std::numeric_limits<double>::infinity();
  return profile.work / r;
}

double ExecutionModel::mem_usage(double progress_fraction,
                                 const DemandProfile& profile) const {
  const double p = std::clamp(progress_fraction, 0.0, 1.0);
  const double ramp = std::min(1.0, p / kMemRampEnd);
  // Containers start with a runtime baseline (min_mem) and grow to peak.
  return profile.min_mem + ramp * (profile.demand.mem - profile.min_mem);
}

double ExecutionModel::cpu_usage(const Resources& alloc,
                                 const DemandProfile& profile) const {
  return std::min(alloc.cpu, profile.demand.cpu) * kCpuDutyCycle;
}

bool ExecutionModel::below_oom_floor(const Resources& alloc,
                                     const DemandProfile& profile) const {
  return alloc.mem < profile.min_mem - 1e-9;
}

}  // namespace libra::sim
