// Descriptive statistics used across the evaluation harness: percentile
// queries, CDF extraction for the paper's Figure-6/13 style plots, streaming
// accumulators, and piecewise-constant time-series integration for the
// utilization timelines of Figures 7/11.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace libra::util {

/// Arithmetic mean; 0 for an empty range.
double mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 when fewer than 2 samples.
double stddev(const std::vector<double>& xs);

/// Linear-interpolated percentile, p in [0, 100]. Throws on empty input.
double percentile(std::vector<double> xs, double p);

/// Maximum; throws on empty input.
double max_of(const std::vector<double>& xs);

/// Minimum; throws on empty input.
double min_of(const std::vector<double>& xs);

/// Five-number-style summary of a sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Summary summarize(const std::vector<double>& xs);

/// Empirical CDF over a sample. `points(n)` returns n evenly spaced
/// (value, cumulative_fraction) pairs, the format the paper's CDF figures use.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  /// Fraction of samples <= x.
  double at(double x) const;

  /// Value at the given cumulative fraction q in [0, 1].
  double quantile(double q) const;

  std::vector<std::pair<double, double>> points(size_t n) const;

  size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

/// Streaming mean/variance/min/max accumulator (Welford).
class Accumulator {
 public:
  void add(double x);
  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

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
  double last_value() const;

  const std::vector<double>& times() const { return times_; }
  const std::vector<double>& values() const { return values_; }

  /// Downsample to at most n points for reporting.
  std::vector<std::pair<double, double>> sampled(size_t n) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

/// Renders a sample as a compact horizontal-bar histogram string, for
/// at-a-glance distribution output in bench binaries.
std::string ascii_histogram(const std::vector<double>& xs, size_t bins,
                            size_t width);

}  // namespace libra::util
