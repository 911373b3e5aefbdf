// Reporting helpers shared by the bench binaries: CDF tables in the format
// of the paper's figures, and cross-platform summary tables.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "sim/metrics.h"
#include "util/table.h"

namespace libra::exp {

/// Quantile evaluator behind the CDF tables. util::percentile sorts its
/// input on every call, so a 10-row CDF table used to sort the same sample
/// vector 10 times per run. Over a sample vector this evaluator sorts ONCE
/// and interpolates exactly (bit-identical to util::percentile). Over an
/// obs::LogHistogram (streaming runs, where the samples never existed as a
/// vector) it answers from the sketch: within one growth factor of the
/// exact value for positive samples; negative samples land in the
/// underflow bucket and report as 0.
class QuantileEvaluator {
 public:
  explicit QuantileEvaluator(std::vector<double> samples);

  /// Sketch-mode evaluator over an already-built histogram (streaming runs:
  /// see exp::StreamingCollector). Always answers from the sketch.
  explicit QuantileEvaluator(const obs::LogHistogram& hist);

  bool empty() const { return count_ == 0; }
  size_t count() const { return count_; }
  /// True when answers come from the log-histogram sketch instead of the
  /// sorted exact values.
  bool sketched() const { return sketch_ != nullptr; }
  /// Linear-interpolated quantile, p in [0, 100]. Throws on empty input,
  /// matching util::percentile.
  double quantile(double p) const;

 private:
  std::vector<double> sorted_;
  std::unique_ptr<obs::LogHistogram> sketch_;
  size_t count_ = 0;
};

/// Named run for comparison tables.
struct NamedRun {
  std::string name;
  sim::RunMetrics metrics;
};

/// Named pre-built evaluator column for the streaming cdf_table overload.
struct NamedEvaluator {
  std::string name;
  QuantileEvaluator eval;
};

/// Prints a CDF table: one row per quantile, one column per run.
/// `extract` picks the sample vector from each run (latency, speedup, ...).
util::Table cdf_table(const std::string& title,
                      const std::vector<NamedRun>& runs,
                      std::vector<double> (sim::RunMetrics::*extract)() const,
                      const std::vector<double>& quantiles);

/// Same table from pre-built evaluators — the streaming path, where samples
/// never existed as vectors and the columns come straight from
/// LogHistogram sketches (cdf_table accepts either representation).
util::Table cdf_table(const std::string& title,
                      const std::vector<NamedEvaluator>& columns,
                      const std::vector<double>& quantiles);

/// The Fig. 6/7 style headline summary: P50/P99 latency, worst slowdown,
/// average & peak utilization, completion time, outcome counts.
util::Table summary_table(const std::string& title,
                          const std::vector<NamedRun>& runs);

/// Churn-resilience summary: goodput, losses, retries, crash/recovery
/// counts, OOM rescue counters, stale-snapshot decisions, P99 latency and
/// completion time.
util::Table resilience_table(const std::string& title,
                             const std::vector<NamedRun>& runs);

/// Misprediction-resilience summary: trust circuit-breaker activity
/// (demotions, promotions, functions quarantined at run end), OOM rescue
/// outcomes, and the adaptive harvest-margin distribution (p50/p95).
util::Table trust_table(const std::string& title,
                        const std::vector<NamedRun>& runs);

/// Per-outcome invocation counts (Fig. 8 marker classes).
util::Table outcome_table(const std::string& title,
                          const std::vector<NamedRun>& runs);

/// Downsampled utilization timeline (Fig. 7 rows) for one run.
util::Table utilization_timeline_table(const std::string& title,
                                       const sim::RunMetrics& metrics,
                                       size_t points);

/// Standard quantile grid used by the CDF tables.
const std::vector<double>& default_quantiles();

}  // namespace libra::exp
