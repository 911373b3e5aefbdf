#include "sim/metrics.h"

#include <algorithm>

namespace libra::sim {

std::vector<double> RunMetrics::response_latencies() const {
  std::vector<double> out;
  out.reserve(invocations.size());
  for (const auto& r : invocations)
    if (r.completed) out.push_back(r.response_latency);
  return out;
}

std::vector<double> RunMetrics::speedups() const {
  std::vector<double> out;
  out.reserve(invocations.size());
  for (const auto& r : invocations)
    if (r.completed) out.push_back(r.speedup);
  return out;
}

double RunMetrics::workload_completion_time() const {
  return makespan_end - first_arrival;
}

double RunMetrics::avg_cpu_utilization() const {
  if (total_capacity.cpu <= 0) return 0.0;
  return cpu_used.average(first_arrival, makespan_end) / total_capacity.cpu;
}

double RunMetrics::avg_mem_utilization() const {
  if (total_capacity.mem <= 0) return 0.0;
  return mem_used.average(first_arrival, makespan_end) / total_capacity.mem;
}

double RunMetrics::peak_cpu_utilization() const {
  if (total_capacity.cpu <= 0) return 0.0;
  return cpu_used.peak(first_arrival, makespan_end) / total_capacity.cpu;
}

double RunMetrics::peak_mem_utilization() const {
  if (total_capacity.mem <= 0) return 0.0;
  return mem_used.peak(first_arrival, makespan_end) / total_capacity.mem;
}

double RunMetrics::p99_latency() const {
  auto lat = response_latencies();
  if (lat.empty()) return 0.0;
  return util::percentile(std::move(lat), 99.0);
}

double RunMetrics::goodput() const {
  if (invocations.empty()) return 1.0;
  size_t n = 0;
  for (const auto& r : invocations)
    if (r.completed) ++n;
  return static_cast<double>(n) / static_cast<double>(invocations.size());
}

double RunMetrics::mean_recovery_latency() const {
  if (recovery_latencies.empty()) return 0.0;
  double sum = 0.0;
  for (double v : recovery_latencies) sum += v;
  return sum / static_cast<double>(recovery_latencies.size());
}

double RunMetrics::safeguarded_fraction() const {
  if (invocations.empty()) return 0.0;
  size_t n = 0;
  for (const auto& r : invocations)
    if (r.outcome == InvOutcome::kSafeguarded) ++n;
  return static_cast<double>(n) / static_cast<double>(invocations.size());
}

}  // namespace libra::sim
