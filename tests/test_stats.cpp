#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stats.h"

namespace libra::util {
namespace {

TEST(Stats, MeanAndStddev) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
}

TEST(StepSeries, IntegralOfPiecewiseConstant) {
  StepSeries s;
  s.record(0.0, 2.0);
  s.record(10.0, 4.0);
  // [0,10): 2, [10, 20): 4 -> integral over [0,20] = 20 + 40.
  EXPECT_DOUBLE_EQ(s.integral(0, 20), 60.0);
  EXPECT_DOUBLE_EQ(s.average(0, 20), 3.0);
  EXPECT_DOUBLE_EQ(s.peak(0, 20), 4.0);
}

TEST(StepSeries, PartialWindow) {
  StepSeries s;
  s.record(0.0, 1.0);
  s.record(5.0, 3.0);
  EXPECT_DOUBLE_EQ(s.integral(4.0, 6.0), 1.0 + 3.0);
  EXPECT_DOUBLE_EQ(s.peak(0.0, 4.9), 1.0);
}

TEST(StepSeries, SameInstantUpdateOverrides) {
  StepSeries s;
  s.record(1.0, 5.0);
  s.record(1.0, 7.0);
  EXPECT_DOUBLE_EQ(s.values().back(), 7.0);
  EXPECT_DOUBLE_EQ(s.integral(1.0, 2.0), 7.0);
}

TEST(StepSeries, RejectsTimeGoingBackwards) {
  StepSeries s;
  s.record(5.0, 1.0);
  EXPECT_THROW(s.record(4.0, 1.0), std::invalid_argument);
}

TEST(StepSeries, SampledDownsamples) {
  StepSeries s;
  for (int i = 0; i < 100; ++i) s.record(i, i);
  const auto pts = s.sampled(5);
  ASSERT_EQ(pts.size(), 5u);
  EXPECT_DOUBLE_EQ(pts.front().first, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 99.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 99.0);
}

// Property: percentile is monotone in p for arbitrary samples.
class PercentileMonotone : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotone, MonotoneInP) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.normal(0, 10));
  double prev = percentile(xs, 0);
  for (double p = 5; p <= 100; p += 5) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace libra::util
