// Descriptive statistics used across the evaluation harness: mean and
// percentile queries, and piecewise-constant time-series integration for
// the utilization timelines of Figures 7/11. The CDF tables go through
// exp::QuantileEvaluator.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace libra::util {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& xs);

/// Linear-interpolated percentile, p in [0, 100]. Throws on empty input.
double percentile(std::vector<double> xs, double p);

/// Maximum; throws on empty input.
double max_of(const std::vector<double>& xs);

/// Minimum; throws on empty input.
double min_of(const std::vector<double>& xs);

/// Piecewise-constant time series: record (t, value) observations, then
/// query time-weighted average, peak, or integral over a window. Used for
/// cluster CPU/memory utilization timelines.
class StepSeries {
 public:
  /// Record that the series takes `value` from time t onwards. Times must be
  /// non-decreasing.
  void record(double t, double value);

  /// Integral of the series over [t0, t1].
  double integral(double t0, double t1) const;

  /// Time-weighted average over [t0, t1]; 0 for an empty window.
  double average(double t0, double t1) const;

  /// Maximum recorded value within [t0, t1] (value in effect counts).
  double peak(double t0, double t1) const;

  bool empty() const { return times_.empty(); }

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Downsample to at most n points for reporting.
  std::vector<std::pair<double, double>> sampled(size_t n) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace libra::util
