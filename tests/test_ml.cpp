#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/histogram.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/svm.h"
#include "ml/tree.h"

namespace libra::ml {
namespace {

Dataset two_blob_classification(size_t n, util::Rng& rng) {
  // Class 0 around (0,0), class 1 around (4,4): linearly separable-ish.
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    const double cx = label ? 4.0 : 0.0;
    d.add_classification({cx + rng.normal(0, 0.5), cx + rng.normal(0, 0.5)},
                         label);
  }
  return d;
}

Dataset linear_regression_data(size_t n, util::Rng& rng) {
  // y = 3 + 2 x0 - x1 + noise
  Dataset d;
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-5, 5), x1 = rng.uniform(-5, 5);
    d.add_regression({x0, x1}, 3 + 2 * x0 - x1 + rng.normal(0, 0.01));
  }
  return d;
}

TEST(Metrics, Accuracy) {
  EXPECT_DOUBLE_EQ(accuracy({1, 2, 3, 4}, {1, 2, 0, 4}), 0.75);
  EXPECT_THROW(accuracy({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(accuracy({}, {}), std::invalid_argument);
}

TEST(Metrics, R2PerfectAndMeanPredictor) {
  std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r2_score(y, y), 1.0);
  std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r2_score(y, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, R2CanBeVeryNegative) {
  // Table 2 shows values like -475; the metric must not clamp.
  std::vector<double> y = {1, 1.1, 0.9, 1.05};
  std::vector<double> bad = {100, -50, 80, -30};
  EXPECT_LT(r2_score(y, bad), -100.0);
}

TEST(Metrics, ConstantTargetEdgeCase) {
  std::vector<double> y = {2, 2, 2};
  EXPECT_DOUBLE_EQ(r2_score(y, y), 1.0);
  EXPECT_DOUBLE_EQ(r2_score(y, {1, 2, 3}), 0.0);
}

TEST(Metrics, Mae) {
  EXPECT_DOUBLE_EQ(mae({1, 2}, {2, 4}), 1.5);
}

TEST(Dataset, SplitPreservesRowsAndFraction) {
  util::Rng rng(3);
  auto d = two_blob_classification(100, rng);
  auto split = split_dataset(d, 0.7, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_TRUE(split.train.has_labels());
  EXPECT_THROW(split_dataset(d, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(split_dataset(d, 1.0, rng), std::invalid_argument);
}

TEST(Dataset, NumClasses) {
  Dataset d;
  d.add_classification({0.0}, 0);
  d.add_classification({1.0}, 4);
  EXPECT_EQ(d.num_classes(), 5);
  EXPECT_THROW(d.add_classification({1.0}, -1), std::invalid_argument);
}

TEST(MinMaxScaler, MapsToUnitBox) {
  MinMaxScaler sc;
  sc.fit({{0, 10}, {10, 30}});
  auto t = sc.transform({5, 20});
  EXPECT_DOUBLE_EQ(t[0], 0.5);
  EXPECT_DOUBLE_EQ(t[1], 0.5);
}

TEST(MinMaxScaler, ConstantFeatureMapsToHalf) {
  MinMaxScaler sc;
  sc.fit({{7.0}, {7.0}});
  EXPECT_DOUBLE_EQ(sc.transform({7.0})[0], 0.5);
}

TEST(SolveLinearSystem, SolvesKnownSystem) {
  // 2x + y = 5; x + 3y = 10  -> x = 1, y = 3
  auto x = solve_linear_system({{2, 1}, {1, 3}}, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(SolveLinearSystem, ThrowsOnSingular) {
  EXPECT_THROW(solve_linear_system({{1, 1}, {2, 2}}, {1, 2}),
               std::runtime_error);
}

TEST(LinearRegressor, RecoversCoefficients) {
  util::Rng rng(5);
  auto d = linear_regression_data(200, rng);
  LinearRegressor lr;
  lr.fit(d);
  EXPECT_NEAR(lr.predict({0, 0}), 3.0, 0.05);
  EXPECT_NEAR(lr.predict({1, 0}), 5.0, 0.05);
  EXPECT_NEAR(lr.predict({0, 1}), 2.0, 0.05);
}

TEST(LinearRegressor, PredictBeforeFitThrows) {
  LinearRegressor lr;
  EXPECT_THROW(lr.predict({1.0}), std::logic_error);
}

TEST(LogisticClassifier, SeparatesBlobs) {
  util::Rng rng(7);
  auto d = two_blob_classification(200, rng);
  auto split = split_dataset(d, 0.7, rng);
  LogisticClassifier clf;
  clf.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, clf.predict_all(split.test.x)), 0.95);
}

TEST(SvmClassifier, SeparatesBlobs) {
  util::Rng rng(11);
  auto d = two_blob_classification(200, rng);
  auto split = split_dataset(d, 0.7, rng);
  SvmClassifier svm;
  svm.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, svm.predict_all(split.test.x)), 0.95);
}

TEST(MlpClassifier, LearnsXorLikePattern) {
  // XOR is not linearly separable; the hidden layer must earn its keep.
  util::Rng rng(13);
  Dataset d;
  for (int i = 0; i < 400; ++i) {
    const int a = rng.bernoulli(0.5), b = rng.bernoulli(0.5);
    d.add_classification(
        {a + rng.normal(0, 0.1), b + rng.normal(0, 0.1)}, a ^ b);
  }
  auto split = split_dataset(d, 0.7, rng);
  MlpOptions opt;
  opt.hidden = 16;
  opt.epochs = 300;
  MlpClassifier mlp(opt);
  mlp.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, mlp.predict_all(split.test.x)), 0.9);
}

TEST(MlpRegressor, FitsSmoothFunction) {
  util::Rng rng(17);
  Dataset d;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0, 1);
    d.add_regression({x}, std::sin(3 * x));
  }
  auto split = split_dataset(d, 0.7, rng);
  MlpRegressor mlp;
  mlp.fit(split.train);
  EXPECT_GE(r2_score(split.test.targets, mlp.predict_all(split.test.x)), 0.9);
}

TEST(DecisionTree, ClassifiesPerfectlySeparableData) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.add_classification({static_cast<double>(i)}, i < 25 ? 0 : 1);
  DecisionTreeClassifier tree;
  tree.fit(d);
  EXPECT_EQ(tree.predict({3.0}), 0);
  EXPECT_EQ(tree.predict({40.0}), 1);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTree, RegressionStepFunction) {
  Dataset d;
  for (int i = 0; i < 60; ++i)
    d.add_regression({static_cast<double>(i)}, i < 30 ? 1.0 : 5.0);
  DecisionTreeRegressor tree;
  tree.fit(d);
  EXPECT_NEAR(tree.predict({10.0}), 1.0, 1e-9);
  EXPECT_NEAR(tree.predict({50.0}), 5.0, 1e-9);
}

TEST(DecisionTree, RespectsMaxDepth) {
  util::Rng rng(19);
  Dataset d;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0, 1);
    d.add_regression({x}, x + rng.normal(0, 0.01));
  }
  TreeOptions opt;
  opt.max_depth = 1;
  DecisionTreeRegressor stump(opt);
  stump.fit(d);
  EXPECT_LE(stump.node_count(), 3u);  // root + two leaves
}

TEST(RandomForest, BeatsChanceOnNoisyBlobs) {
  util::Rng rng(23);
  auto d = two_blob_classification(300, rng);
  auto split = split_dataset(d, 0.7, rng);
  RandomForestClassifier rf;
  rf.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, rf.predict_all(split.test.x)), 0.95);
  EXPECT_EQ(rf.tree_count(), 40u);
}

TEST(RandomForest, RegressionOnLinearData) {
  util::Rng rng(29);
  auto d = linear_regression_data(300, rng);
  auto split = split_dataset(d, 0.7, rng);
  RandomForestRegressor rf;
  rf.fit(split.train);
  EXPECT_GE(r2_score(split.test.targets, rf.predict_all(split.test.x)), 0.9);
}

TEST(RandomForest, RejectsNonFiniteFeatures) {
  // A NaN breaks the strict weak ordering the presort relies on, so every
  // tree and forest fit refuses it, as HistogramModel::observe does.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Dataset clf, reg;
    for (int i = 0; i < 20; ++i) {
      const double x = i == 7 ? bad : static_cast<double>(i);
      clf.add_classification({x, 1.0}, i % 2);
      reg.add_regression({1.0, x}, 0.5 * i);
    }
    EXPECT_THROW(DecisionTreeClassifier().fit(clf), std::invalid_argument);
    EXPECT_THROW(DecisionTreeRegressor().fit(reg), std::invalid_argument);
    EXPECT_THROW(RandomForestClassifier().fit(clf), std::invalid_argument);
    EXPECT_THROW(RandomForestRegressor().fit(reg), std::invalid_argument);
  }
}

TEST(RandomForest, RejectsSampleFractionsThatCannotSizeABootstrap) {
  // The bootstrap size is static_cast<size_t>(fraction * n), undefined for
  // NaN, a negative or an overflowing product; fits accept (0, 1].
  util::Rng rng(31);
  const auto clf = two_blob_classification(30, rng);
  const auto reg = linear_regression_data(30, rng);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -0.5, 0.0,
                     1.5, std::numeric_limits<double>::infinity()}) {
    ForestOptions opt;
    opt.sample_fraction = bad;
    EXPECT_THROW(RandomForestClassifier(opt).fit(clf), std::invalid_argument)
        << bad;
    EXPECT_THROW(RandomForestRegressor(opt).fit(reg), std::invalid_argument)
        << bad;
  }
  ForestOptions half;
  half.sample_fraction = 0.5;
  RandomForestClassifier rf(half);
  EXPECT_NO_THROW(rf.fit(clf));
}

TEST(RandomForest, RejectsAForestWithoutTrees) {
  // Zero trees used to fit "successfully" and then throw "predict before
  // fit" at the first prediction.
  util::Rng rng(37);
  const auto clf = two_blob_classification(30, rng);
  const auto reg = linear_regression_data(30, rng);
  for (int trees : {0, -3}) {
    ForestOptions opt;
    opt.num_trees = trees;
    EXPECT_THROW(RandomForestClassifier(opt).fit(clf), std::invalid_argument);
    EXPECT_THROW(RandomForestRegressor(opt).fit(reg), std::invalid_argument);
  }
}

TEST(DecisionTree, RejectsRaggedRowsAndLabelsOutsideTheClasses) {
  Dataset ragged;
  ragged.add_regression({1.0, 2.0}, 1.0);
  ragged.add_regression({3.0}, 2.0);
  EXPECT_THROW(DecisionTreeRegressor().fit(ragged), std::invalid_argument);
  Dataset clf;
  for (int i = 0; i < 6; ++i)
    clf.add_classification({static_cast<double>(i)}, i % 3);
  detail::Cart cart;
  EXPECT_THROW(cart.fit(clf, {0, 1, 2}, true, /*num_classes=*/2, {}),
               std::invalid_argument);
  EXPECT_NO_THROW(cart.fit(clf, {0, 1, 2}, true, /*num_classes=*/3, {}));
}

TEST(Histogram, ExactPercentilesOnSmallSample) {
  HistogramModel h(0, 100, 10);
  for (double v : {10.0, 20.0, 30.0, 40.0}) h.observe(v);
  EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 25.0);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, BucketedPercentilesAfterOverflow) {
  HistogramModel h(0, 100, 100, /*max_exact=*/10);
  util::Rng rng(31);
  for (int i = 0; i < 10000; ++i) h.observe(rng.uniform(0, 100));
  EXPECT_NEAR(h.percentile(50), 50.0, 3.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 3.0);
}

TEST(Histogram, ClampsOutOfRangeObservations) {
  HistogramModel h(0, 10, 10);
  h.observe(-5);
  h.observe(50);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5);
  EXPECT_DOUBLE_EQ(h.max(), 50);
}

TEST(Histogram, EmptyThrows) {
  HistogramModel h(0, 10, 10);
  EXPECT_THROW(h.percentile(50), std::logic_error);
  EXPECT_THROW(h.mean(), std::logic_error);
}

TEST(Histogram, RejectsNonFiniteObservations) {
  HistogramModel h(0, 10, 10);
  h.observe(3.0);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()})
    EXPECT_THROW(h.observe(bad), std::invalid_argument) << bad;
  // A rejected value leaves no trace.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 3.0);
  EXPECT_EQ(h.percentile(100), 3.0);
}

/// The exact-path order statistic as it is defined: sort a copy of every
/// sample seen, interpolate between the two ranks around p.
double sorted_copy_percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

TEST(Histogram, PercentilesMatchSortedCopyAfterEveryObservation) {
  // Few distinct values, so most inserts land among equal samples; a twin
  // that retains no exact samples is the bucket-path reference past
  // max_exact.
  constexpr size_t kMaxExact = 96;
  for (uint64_t seed : {1, 2, 3, 4}) {
    util::Rng rng(seed);
    HistogramModel h(0, 20, 40, kMaxExact);
    HistogramModel buckets_only(0, 20, 40, /*max_exact=*/0);
    std::vector<double> seen;
    for (size_t i = 0; i < kMaxExact + 64; ++i) {
      const double v = 0.5 * static_cast<double>(rng.uniform_int(-4, 44));
      h.observe(v);
      buckets_only.observe(v);
      seen.push_back(v);
      for (double p : {0.0, 5.0, 50.0, 95.0, 99.0, 100.0}) {
        const double want = seen.size() <= kMaxExact
                                 ? sorted_copy_percentile(seen, p)
                                 : buckets_only.percentile(p);
        EXPECT_EQ(h.percentile(p), want)
            << "seed " << seed << " after " << seen.size() << " p" << p;
      }
    }
  }
}

// Property sweep: RF classification accuracy is robust across seeds.
class ForestSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForestSeedSweep, StableAccuracyAcrossSeeds) {
  util::Rng rng(GetParam());
  auto d = two_blob_classification(200, rng);
  auto split = split_dataset(d, 0.7, rng);
  ForestOptions opt;
  opt.seed = GetParam();
  RandomForestClassifier rf(opt);
  rf.fit(split.train);
  EXPECT_GE(accuracy(split.test.labels, rf.predict_all(split.test.x)), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestSeedSweep,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace libra::ml
