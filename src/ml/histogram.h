// Streaming histogram model for input-size-unrelated functions (§4.3.2).
// Libra serves such functions with maximum allocation during a profiling
// window, records actual CPU/memory peaks and execution times, and afterwards
// predicts via tail/head percentiles (paper: p99 for peaks, p5 for duration).
#pragma once

#include <cstddef>
#include <vector>

namespace libra::ml {

class HistogramModel {
 public:
  /// `bins` fixed-width buckets spanning [lo, hi]; out-of-range observations
  /// clamp into the edge buckets, exact samples are also retained up to
  /// `max_exact` for precise small-sample percentiles.
  HistogramModel(double lo, double hi, size_t bins, size_t max_exact = 4096);

  /// Throws std::invalid_argument on NaN or infinite values. Retaining an
  /// exact sample moves at most `max_exact` doubles (sorted insert).
  void observe(double value);

  /// Percentile estimate, p in [0, 100]. Uses exact retained samples while
  /// available, afterwards interpolates within buckets. Throws when empty.
  /// O(1) on the exact path, O(bins) on the bucket path.
  double percentile(double p) const;

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const;
  double max() const;
  double mean() const;

  const std::vector<size_t>& buckets() const { return counts_; }

 private:
  double bucket_lo(size_t b) const;
  double bucket_width() const;

  double lo_, hi_;
  std::vector<size_t> counts_;
  std::vector<double> exact_;  // ascending
  size_t max_exact_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double observed_min_ = 0.0;
  double observed_max_ = 0.0;
};

}  // namespace libra::ml
