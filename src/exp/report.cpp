#include "exp/report.h"

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace libra::exp {

using util::Table;

QuantileEvaluator::QuantileEvaluator(std::vector<double> samples)
    : sorted_(std::move(samples)), count_(sorted_.size()) {
  std::sort(sorted_.begin(), sorted_.end());
}

QuantileEvaluator::QuantileEvaluator(const obs::LogHistogram& hist)
    : sketch_(std::make_unique<obs::LogHistogram>(hist)),
      count_(static_cast<size_t>(hist.count())) {}

double QuantileEvaluator::quantile(double p) const {
  if (count_ == 0)
    throw std::invalid_argument("QuantileEvaluator: empty sample");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("QuantileEvaluator: p out of range");
  if (sketch_) return sketch_->percentile(p);
  // Exact path: identical interpolation to util::percentile on the
  // already-sorted samples.
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

const std::vector<double>& default_quantiles() {
  static const std::vector<double> kQ = {1,  5,  10, 25, 50, 75,
                                         90, 95, 99, 100};
  return kQ;
}

Table cdf_table(const std::string& title, const std::vector<NamedRun>& runs,
                std::vector<double> (sim::RunMetrics::*extract)() const,
                const std::vector<double>& quantiles) {
  // Extract and sort each run's samples once, not once per quantile row,
  // then share the row-rendering with the streaming overload.
  std::vector<NamedEvaluator> columns;
  columns.reserve(runs.size());
  for (const auto& run : runs)
    columns.push_back({run.name, QuantileEvaluator((run.metrics.*extract)())});
  return cdf_table(title, columns, quantiles);
}

Table cdf_table(const std::string& title,
                const std::vector<NamedEvaluator>& columns,
                const std::vector<double>& quantiles) {
  Table table(title);
  std::vector<std::string> header = {"percentile"};
  for (const auto& col : columns) header.push_back(col.name);
  table.set_header(std::move(header));
  for (double q : quantiles) {
    std::vector<std::string> row = {Table::fmt(q, 0) + "%"};
    for (const auto& col : columns)
      row.push_back(col.eval.empty() ? "-" : Table::fmt(col.eval.quantile(q)));
    table.add_row(std::move(row));
  }
  return table;
}

Table summary_table(const std::string& title,
                    const std::vector<NamedRun>& runs) {
  Table table(title);
  table.set_header({"platform", "p50 lat(s)", "p99 lat(s)", "worst slowdown",
                    "avg cpu util", "avg mem util", "peak cpu util",
                    "completion(s)", "safeguarded", "ooms"});
  for (const auto& run : runs) {
    const auto& m = run.metrics;
    auto lats = m.response_latencies();
    auto spds = m.speedups();
    const double p50 =
        lats.empty() ? 0.0 : util::percentile(lats, 50.0);
    const double worst_speedup =
        spds.empty() ? 0.0 : util::min_of(spds);
    table.add_row({run.name, Table::fmt(p50), Table::fmt(m.p99_latency()),
                   Table::pct(-std::min(0.0, worst_speedup)),
                   Table::pct(m.avg_cpu_utilization()),
                   Table::pct(m.avg_mem_utilization()),
                   Table::pct(m.peak_cpu_utilization()),
                   Table::fmt(m.workload_completion_time(), 1),
                   Table::pct(m.safeguarded_fraction()),
                   std::to_string(m.oom_events)});
  }
  return table;
}

Table resilience_table(const std::string& title,
                       const std::vector<NamedRun>& runs) {
  Table table(title);
  table.set_header({"platform", "goodput", "lost", "retries", "oom retr",
                    "oom lost", "crashes", "recoveries", "mean recov(s)",
                    "stale sched", "cold fails", "dropped pings", "p99 lat(s)",
                    "completion(s)"});
  for (const auto& run : runs) {
    const auto& m = run.metrics;
    table.add_row({run.name, Table::pct(m.goodput()),
                   std::to_string(m.lost_invocations),
                   std::to_string(m.fault_retries),
                   std::to_string(m.oom_retries),
                   std::to_string(m.oom_terminal_losses),
                   std::to_string(m.node_crashes),
                   std::to_string(m.node_recoveries),
                   Table::fmt(m.mean_recovery_latency(), 1),
                   std::to_string(m.stale_snapshot_decisions),
                   std::to_string(m.cold_start_failures),
                   std::to_string(m.dropped_health_pings),
                   Table::fmt(m.p99_latency(), 2),
                   Table::fmt(m.workload_completion_time(), 1)});
  }
  return table;
}

Table trust_table(const std::string& title, const std::vector<NamedRun>& runs) {
  Table table(title);
  table.set_header({"platform", "demotions", "promotions", "quarantined",
                    "oom retr", "oom lost", "ooms", "safeguards",
                    "margin p50", "margin p95", "p99 lat(s)"});
  for (const auto& run : runs) {
    const auto& m = run.metrics;
    const auto& margins = m.policy.harvest_margin_samples;
    const std::string p50 =
        margins.empty() ? "-" : Table::pct(util::percentile(margins, 50.0));
    const std::string p95 =
        margins.empty() ? "-" : Table::pct(util::percentile(margins, 95.0));
    table.add_row({run.name, std::to_string(m.policy.trust_demotions),
                   std::to_string(m.policy.trust_promotions),
                   std::to_string(m.policy.quarantined_functions),
                   std::to_string(m.oom_retries),
                   std::to_string(m.oom_terminal_losses),
                   std::to_string(m.oom_events),
                   std::to_string(m.policy.safeguard_triggers), p50, p95,
                   Table::fmt(m.p99_latency(), 2)});
  }
  return table;
}

Table outcome_table(const std::string& title,
                    const std::vector<NamedRun>& runs) {
  Table table(title);
  table.set_header({"platform", "default", "harvested", "accelerated",
                    "safeguarded", "total"});
  for (const auto& run : runs) {
    size_t counts[4] = {0, 0, 0, 0};
    for (const auto& rec : run.metrics.invocations)
      ++counts[static_cast<size_t>(rec.outcome)];
    table.add_row({run.name, std::to_string(counts[0]),
                   std::to_string(counts[1]), std::to_string(counts[2]),
                   std::to_string(counts[3]),
                   std::to_string(run.metrics.invocations.size())});
  }
  return table;
}

Table utilization_timeline_table(const std::string& title,
                                 const sim::RunMetrics& metrics,
                                 size_t points) {
  Table table(title);
  table.set_header({"t(s)", "cpu used", "cpu alloc", "cpu util", "mem used(MB)",
                    "mem alloc(MB)", "mem util"});
  const auto cpu_used = metrics.cpu_used.sampled(points);
  const auto cpu_alloc = metrics.cpu_allocated.sampled(points);
  const auto mem_used = metrics.mem_used.sampled(points);
  const auto mem_alloc = metrics.mem_allocated.sampled(points);
  const size_t n = std::min({cpu_used.size(), cpu_alloc.size(),
                             mem_used.size(), mem_alloc.size()});
  for (size_t i = 0; i < n; ++i) {
    const double cpu_util = metrics.total_capacity.cpu > 0
                                ? cpu_used[i].second / metrics.total_capacity.cpu
                                : 0.0;
    const double mem_util = metrics.total_capacity.mem > 0
                                ? mem_used[i].second / metrics.total_capacity.mem
                                : 0.0;
    table.add_row({Table::fmt(cpu_used[i].first, 1),
                   Table::fmt(cpu_used[i].second, 1),
                   Table::fmt(cpu_alloc[i].second, 1), Table::pct(cpu_util),
                   Table::fmt(mem_used[i].second, 0),
                   Table::fmt(mem_alloc[i].second, 0), Table::pct(mem_util)});
  }
  return table;
}

}  // namespace libra::exp
