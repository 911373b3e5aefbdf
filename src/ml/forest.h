// Bagged random forest over CART trees — the model family Libra's profiler
// selects after the §8.6 comparison ("we opt for Random Forest regarding the
// prediction performance").
#pragma once

#include "ml/tree.h"

namespace libra::ml {

struct ForestOptions {
  int num_trees = 40;
  TreeOptions tree;
  /// Bootstrap sample fraction of the training set per tree.
  double sample_fraction = 1.0;
  uint64_t seed = 101;
};

class RandomForestClassifier : public Classifier {
 public:
  explicit RandomForestClassifier(ForestOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  int predict(const FeatureRow& row) const override;  // majority vote
  size_t tree_count() const { return trees_.size(); }
  /// Appends every split threshold of every tree (Cart::append_thresholds).
  void append_thresholds(std::vector<double>& out) const {
    for (const auto& tree : trees_) tree.append_thresholds(out);
  }

 private:
  ForestOptions opt_;
  int num_classes_ = 0;
  std::vector<detail::Cart> trees_;
};

class RandomForestRegressor : public Regressor {
 public:
  explicit RandomForestRegressor(ForestOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  double predict(const FeatureRow& row) const override;  // mean of trees
  size_t tree_count() const { return trees_.size(); }
  /// Appends every split threshold of every tree (Cart::append_thresholds).
  void append_thresholds(std::vector<double>& out) const {
    for (const auto& tree : trees_) tree.append_thresholds(out);
  }

 private:
  ForestOptions opt_;
  std::vector<detail::Cart> trees_;
};

}  // namespace libra::ml
