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

/// Training scratch for Cart (DESIGN.md §5m): the dataset gathered into
/// columns once, and the index arrays, partition buffer and class counts
/// every tree and node of one fit reuse, so no node sorts or allocates.
/// One per fit; never shared between threads.
struct CartWorkspace {
  /// Gathers `data` (labels when `is_classification`, else targets).
  /// Throws std::invalid_argument on a non-finite feature, a ragged row or
  /// a label outside [0, class_count): NaN breaks the strict weak ordering
  /// the presort needs, and the others index out of bounds.
  CartWorkspace(const Dataset& data, bool is_classification, int class_count);

  bool classification;
  size_t num_classes;
  size_t rows;
  size_t features;
  std::vector<double> x;         // feature-major: x[f * rows + row]
  std::vector<size_t> labels;    // per row (classification)
  std::vector<double> targets;   // per row (regression)
  std::vector<size_t> by_x;      // feature-major: the rows in ascending x
  std::vector<size_t> copies;    // per row: its copies in the tree's sample

  // Per tree, over the m entries of its sample (row ids, with repeats). A
  // node owns the same range [begin, end) of every array.
  std::vector<size_t> order;     // sample order, stably partitioned by splits
  std::vector<size_t> sorted;    // feature-major, ascending x in every range
  std::vector<size_t> spill;     // false side of a stable partition
  // A node's rows gathered in one feature's sorted order.
  std::vector<double> col_x;
  std::vector<double> col_y;       // regression
  std::vector<size_t> col_label;   // classification
  std::vector<size_t> counts, left, right;  // class counts, num_classes each
  std::vector<size_t> present;   // classes present in the node, ascending
  std::vector<TreeNode> nodes;   // the tree being built
};

/// Flat-array CART tree shared by classifier/regressor wrappers.
class Cart {
 public:
  /// mode: true = classification (labels), false = regression (targets).
  void fit(const Dataset& data, const std::vector<size_t>& sample_indices,
           bool classification, int num_classes, const TreeOptions& opt);
  /// Fits on rows of the workspace's dataset; the forest's path.
  void fit(CartWorkspace& ws, const std::vector<size_t>& sample_indices,
           const TreeOptions& opt);
  double predict(const FeatureRow& row) const;
  /// Appends the threshold of every split node, whatever its feature.
  void append_thresholds(std::vector<double>& out) const;
  size_t node_count() const { return nodes_.size(); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  int depth() const;

 private:
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
