#include "ml/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace libra::ml {

HistogramModel::HistogramModel(double lo, double hi, size_t bins,
                               size_t max_exact)
    : lo_(lo), hi_(hi), counts_(bins, 0), max_exact_(max_exact) {
  if (hi <= lo) throw std::invalid_argument("HistogramModel: hi <= lo");
  if (bins == 0) throw std::invalid_argument("HistogramModel: zero bins");
}

double HistogramModel::bucket_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double HistogramModel::bucket_lo(size_t b) const {
  return lo_ + bucket_width() * static_cast<double>(b);
}

void HistogramModel::observe(double value) {
  // A NaN bucket index is undefined behaviour, and an infinity would turn
  // every later interpolation into NaN.
  if (!std::isfinite(value))
    throw std::invalid_argument("HistogramModel: non-finite observation");
  if (count_ == 0) {
    observed_min_ = observed_max_ = value;
  } else {
    observed_min_ = std::min(observed_min_, value);
    observed_max_ = std::max(observed_max_, value);
  }
  ++count_;
  sum_ += value;
  const double clamped = std::clamp(value, lo_, hi_);
  size_t b = static_cast<size_t>((clamped - lo_) / bucket_width());
  if (b >= counts_.size()) b = counts_.size() - 1;
  ++counts_[b];
  // Sorted on arrival (equal values after their earlier copies), so the
  // exact path indexes order statistics without sorting a copy.
  if (exact_.size() < max_exact_)
    exact_.insert(std::upper_bound(exact_.begin(), exact_.end(), value),
                  value);
}

double HistogramModel::percentile(double p) const {
  if (count_ == 0) throw std::logic_error("HistogramModel: empty");
  if (p < 0 || p > 100) throw std::invalid_argument("percentile range");
  if (exact_.size() == count_) {
    // Small-sample path: exact order statistics.
    const double rank = p / 100.0 * static_cast<double>(exact_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, exact_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return exact_[lo] + frac * (exact_[hi] - exact_[lo]);
  }
  // Bucket path with linear interpolation inside the target bucket.
  const double target = p / 100.0 * static_cast<double>(count_);
  double running = 0.0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    const double next = running + static_cast<double>(counts_[b]);
    if (next >= target && counts_[b] > 0) {
      const double within =
          counts_[b] ? (target - running) / static_cast<double>(counts_[b])
                     : 0.0;
      return bucket_lo(b) + bucket_width() * std::clamp(within, 0.0, 1.0);
    }
    running = next;
  }
  return observed_max_;
}

double HistogramModel::min() const {
  if (count_ == 0) throw std::logic_error("HistogramModel: empty");
  return observed_min_;
}

double HistogramModel::max() const {
  if (count_ == 0) throw std::logic_error("HistogramModel: empty");
  return observed_max_;
}

double HistogramModel::mean() const {
  if (count_ == 0) throw std::logic_error("HistogramModel: empty");
  return sum_ / static_cast<double>(count_);
}

}  // namespace libra::ml
