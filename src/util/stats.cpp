#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace libra::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty sample");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p out of range");
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double max_of(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("max_of: empty sample");
  return *std::max_element(xs.begin(), xs.end());
}

double min_of(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("min_of: empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  s.min = min_of(xs);
  s.max = max_of(xs);
  s.p50 = percentile(xs, 50);
  s.p90 = percentile(xs, 90);
  s.p99 = percentile(xs, 99);
  return s;
}

Cdf::Cdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::at(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::quantile(double q) const {
  if (sorted_.empty()) throw std::logic_error("Cdf::quantile on empty CDF");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q range");
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

std::vector<std::pair<double, double>> Cdf::points(size_t n) const {
  std::vector<std::pair<double, double>> out;
  if (sorted_.empty() || n == 0) return out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double q = n == 1 ? 1.0
                            : static_cast<double>(i) /
                                  static_cast<double>(n - 1);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void StepSeries::record(double t, double value) {
  if (!times_.empty() && t < times_.back())
    throw std::invalid_argument("StepSeries: time went backwards");
  if (!times_.empty() && t == times_.back()) {
    values_.back() = value;  // same-instant update overrides
    return;
  }
  times_.push_back(t);
  values_.push_back(value);
}

double StepSeries::integral(double t0, double t1) const {
  if (times_.empty() || t1 <= t0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < times_.size(); ++i) {
    const double seg_start = times_[i];
    const double seg_end = (i + 1 < times_.size()) ? times_[i + 1] : t1;
    const double lo = std::max(seg_start, t0);
    const double hi = std::min(seg_end, t1);
    if (hi > lo) total += values_[i] * (hi - lo);
    if (seg_start >= t1) break;
  }
  return total;
}

double StepSeries::average(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  return integral(t0, t1) / (t1 - t0);
}

double StepSeries::peak(double t0, double t1) const {
  if (times_.empty()) return 0.0;
  double best = 0.0;
  bool any = false;
  for (size_t i = 0; i < times_.size(); ++i) {
    const double seg_start = times_[i];
    const double seg_end = (i + 1 < times_.size())
                               ? times_[i + 1]
                               : std::max(t1, seg_start);
    if (seg_end <= t0 || seg_start >= t1) continue;
    best = any ? std::max(best, values_[i]) : values_[i];
    any = true;
  }
  return any ? best : 0.0;
}

double StepSeries::last_value() const {
  if (values_.empty()) throw std::logic_error("StepSeries: empty");
  return values_.back();
}

std::vector<std::pair<double, double>> StepSeries::sampled(size_t n) const {
  std::vector<std::pair<double, double>> out;
  if (times_.empty() || n == 0) return out;
  const double t0 = times_.front();
  const double t1 = times_.back();
  if (n == 1 || t1 <= t0) {
    out.emplace_back(t0, values_.front());
    return out;
  }
  size_t idx = 0;
  for (size_t i = 0; i < n; ++i) {
    const double t =
        t0 + (t1 - t0) * static_cast<double>(i) / static_cast<double>(n - 1);
    while (idx + 1 < times_.size() && times_[idx + 1] <= t) ++idx;
    out.emplace_back(t, values_[idx]);
  }
  return out;
}

std::string ascii_histogram(const std::vector<double>& xs, size_t bins,
                            size_t width) {
  std::ostringstream os;
  if (xs.empty() || bins == 0) return "(empty)\n";
  const double lo = min_of(xs);
  const double hi = max_of(xs);
  const double span = hi > lo ? hi - lo : 1.0;
  std::vector<size_t> counts(bins, 0);
  for (double x : xs) {
    size_t b = static_cast<size_t>((x - lo) / span * static_cast<double>(bins));
    if (b >= bins) b = bins - 1;
    ++counts[b];
  }
  const size_t peak = *std::max_element(counts.begin(), counts.end());
  for (size_t b = 0; b < bins; ++b) {
    const double bin_lo = lo + span * static_cast<double>(b) / bins;
    const size_t bar =
        peak ? counts[b] * width / peak : 0;
    os.setf(std::ios::fixed);
    os.precision(3);
    os << "[" << bin_lo << "] ";
    for (size_t i = 0; i < bar; ++i) os << '#';
    os << " " << counts[b] << "\n";
  }
  return os.str();
}

}  // namespace libra::util
