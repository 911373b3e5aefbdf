// Invocation execution model. An invocation carries `work` core-seconds of
// CPU and a (cpu, mem) peak demand. Its instantaneous progress rate is
//
//     rate = min(alloc.cpu, demand.cpu) * mem_penalty(alloc.mem / demand.mem)
//
// so CPU beyond the demand peak is useless (matching Fig. 1 Case 3, where
// fully-utilized invocations cannot be accelerated) and CPU below it slows the
// invocation proportionally. Memory below the peak demand degrades progress
// (paging model) down to a floor, and below the function's `min_mem` the
// container OOMs. Memory *usage* ramps up with progress, which is what the
// safeguard daemon observes through its cgroup monitor stand-in.
#pragma once

#include "sim/types.h"
#include "sim/function.h"

namespace libra::sim {

class ExecutionModel {
 public:
  /// Exponent of the memory penalty curve; 1 = linear degradation.
  static constexpr double kMemPenaltyGamma = 1.5;
  /// Lower bound of the memory penalty factor (heavy paging still progresses).
  static constexpr double kMemPenaltyFloor = 0.2;
  /// Fraction of progress at which memory usage reaches its peak.
  static constexpr double kMemRampEnd = 0.6;
  /// CPU usage duty cycle: the share of its cores a running invocation keeps
  /// busy; utilization accounting multiplies by this.
  static constexpr double kCpuDutyCycle = 1.0;

  /// Progress rate in core-seconds of work retired per second.
  double rate(const Resources& alloc, const DemandProfile& profile) const;

  /// Execution time for the whole invocation under a static allocation.
  /// Returns +inf when rate is zero.
  double exec_time(const Resources& alloc, const DemandProfile& profile) const;

  /// Memory in use (MB) at a given progress fraction in [0, 1].
  double mem_usage(double progress_fraction,
                   const DemandProfile& profile) const;

  /// CPU cores in use given an allocation (the busy-core count a cgroup
  /// monitor would report).
  double cpu_usage(const Resources& alloc, const DemandProfile& profile) const;

  /// True when the allocation is below the hard OOM floor.
  bool below_oom_floor(const Resources& alloc,
                       const DemandProfile& profile) const;

 private:
  double mem_penalty(const Resources& alloc,
                     const DemandProfile& profile) const;
};

}  // namespace libra::sim
