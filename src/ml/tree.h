// CART decision tree supporting both classification (Gini impurity) and
// regression (variance reduction). Building block for the random forest that
// Libra's profiler selects (§4.3.1, §8.6).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ml/model.h"
#include "util/rng.h"

namespace libra::ml {

struct TreeOptions {
  int max_depth = 12;
  size_t min_samples_leaf = 1;
  size_t min_samples_split = 2;
  /// Number of candidate features per split; 0 = all features.
  size_t max_features = 0;
  uint64_t seed = 7;
};

namespace detail {
struct TreeNode {
  bool is_leaf = true;
  size_t feature = 0;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;  // mean target (regression) or argmax class (clf)
};

/// Flat-array CART tree shared by classifier/regressor wrappers.
class Cart {
 public:
  /// mode: true = classification (labels), false = regression (targets).
  void fit(const Dataset& data, const std::vector<size_t>& sample_indices,
           bool classification, int num_classes, const TreeOptions& opt);
  double predict(const FeatureRow& row) const;
  /// Appends the threshold of every split node, whatever its feature.
  void append_thresholds(std::vector<double>& out) const;
  size_t node_count() const { return nodes_.size(); }
  int depth() const;

 private:
  int build(const Dataset& data, std::vector<size_t>& indices, size_t begin,
            size_t end, int depth, bool classification, int num_classes,
            const TreeOptions& opt, util::Rng& rng);
  std::vector<TreeNode> nodes_;
};
}  // namespace detail

class DecisionTreeClassifier : public Classifier {
 public:
  explicit DecisionTreeClassifier(TreeOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  int predict(const FeatureRow& row) const override;
  size_t node_count() const { return tree_.node_count(); }

 private:
  TreeOptions opt_;
  detail::Cart tree_;
};

class DecisionTreeRegressor : public Regressor {
 public:
  explicit DecisionTreeRegressor(TreeOptions opt = {}) : opt_(opt) {}
  void fit(const Dataset& data) override;
  double predict(const FeatureRow& row) const override;
  size_t node_count() const { return tree_.node_count(); }

 private:
  TreeOptions opt_;
  detail::Cart tree_;
};

}  // namespace libra::ml
