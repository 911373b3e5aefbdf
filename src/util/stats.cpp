#include "util/stats.h"

#include <algorithm>
#include <stdexcept>

namespace libra::util {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
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

}  // namespace libra::util
