// The CART trainer before the presorted rewrite (DESIGN.md §5m), kept
// verbatim as the reference model for ml::detail::Cart: every node copies its
// rows, re-sorts them for each candidate feature, and stable-partitions them
// around the chosen split. CartReference.* requires the new trainer to build
// the same TreeNode arrays, bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "ml/tree.h"

namespace libra::ml::reference {

using detail::TreeNode;

// Impurity helpers over a set of row indices.
inline double gini(const Dataset& data, const std::vector<size_t>& idx,
                   size_t begin, size_t end, int num_classes,
                   std::vector<double>& counts) {
  counts.assign(static_cast<size_t>(num_classes), 0.0);
  for (size_t i = begin; i < end; ++i)
    counts[static_cast<size_t>(data.labels[idx[i]])] += 1.0;
  const double n = static_cast<double>(end - begin);
  double g = 1.0;
  for (double c : counts) g -= (c / n) * (c / n);
  return g;
}

inline double variance(const Dataset& data, const std::vector<size_t>& idx,
                       size_t begin, size_t end) {
  const double n = static_cast<double>(end - begin);
  double mean = 0.0;
  for (size_t i = begin; i < end; ++i) mean += data.targets[idx[i]];
  mean /= n;
  double var = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const double d = data.targets[idx[i]] - mean;
    var += d * d;
  }
  return var / n;
}

inline double leaf_value(const Dataset& data, const std::vector<size_t>& idx,
                         size_t begin, size_t end, bool classification,
                         int num_classes) {
  if (classification) {
    std::vector<size_t> counts(static_cast<size_t>(num_classes), 0);
    for (size_t i = begin; i < end; ++i)
      ++counts[static_cast<size_t>(data.labels[idx[i]])];
    return static_cast<double>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  }
  double mean = 0.0;
  for (size_t i = begin; i < end; ++i) mean += data.targets[idx[i]];
  return mean / static_cast<double>(end - begin);
}

struct SplitCandidate {
  bool valid = false;
  size_t feature = 0;
  double threshold = 0.0;
  double score = 0.0;  // impurity decrease; higher is better
};

class ReferenceCart {
 public:
  void fit(const Dataset& data, const std::vector<size_t>& sample_indices,
           bool classification, int num_classes, const TreeOptions& opt);
  const std::vector<TreeNode>& nodes() const { return nodes_; }

 private:
  int build(const Dataset& data, std::vector<size_t>& indices, size_t begin,
            size_t end, int depth, bool classification, int num_classes,
            const TreeOptions& opt, util::Rng& rng);
  std::vector<TreeNode> nodes_;
};

inline void ReferenceCart::fit(const Dataset& data,
                               const std::vector<size_t>& sample_indices,
                               bool classification, int num_classes,
                               const TreeOptions& opt) {
  if (sample_indices.empty())
    throw std::invalid_argument("Cart: empty training sample");
  nodes_.clear();
  std::vector<size_t> indices = sample_indices;
  util::Rng rng(opt.seed);
  build(data, indices, 0, indices.size(), 0, classification, num_classes, opt,
        rng);
}

inline int ReferenceCart::build(const Dataset& data,
                                std::vector<size_t>& indices, size_t begin,
                                size_t end, int depth, bool classification,
                                int num_classes, const TreeOptions& opt,
                                util::Rng& rng) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[static_cast<size_t>(node_id)].value =
      leaf_value(data, indices, begin, end, classification, num_classes);

  const size_t n = end - begin;
  if (depth >= opt.max_depth || n < opt.min_samples_split) return node_id;

  std::vector<double> scratch;
  const double parent_impurity =
      classification ? gini(data, indices, begin, end, num_classes, scratch)
                     : variance(data, indices, begin, end);
  if (parent_impurity <= 1e-12) return node_id;

  // Candidate feature subset (random forest uses sqrt(d) via max_features).
  const size_t d = data.num_features();
  std::vector<size_t> features;
  if (opt.max_features == 0 || opt.max_features >= d) {
    features.resize(d);
    for (size_t k = 0; k < d; ++k) features[k] = k;
  } else {
    auto perm = rng.permutation(d);
    features.assign(perm.begin(),
                    perm.begin() + static_cast<long>(opt.max_features));
  }

  SplitCandidate best;
  std::vector<size_t> work(indices.begin() + static_cast<long>(begin),
                           indices.begin() + static_cast<long>(end));
  // Class counts of work[0, moved) and work[moved, end), advanced with the
  // split position instead of recounted at each one.
  std::vector<size_t> left_counts, right_counts;
  for (size_t f : features) {
    std::sort(work.begin(), work.end(), [&](size_t a, size_t b) {
      return data.x[a][f] < data.x[b][f];
    });
    size_t moved = 0;
    if (classification) {
      left_counts.assign(static_cast<size_t>(num_classes), 0);
      right_counts.assign(static_cast<size_t>(num_classes), 0);
      for (size_t row : work)
        ++right_counts[static_cast<size_t>(data.labels[row])];
    }
    // Evaluate splits between consecutive distinct values.
    for (size_t pos = opt.min_samples_leaf;
         pos + opt.min_samples_leaf <= work.size(); ++pos) {
      if (pos == 0 || pos == work.size()) continue;
      const double lo = data.x[work[pos - 1]][f];
      const double hi = data.x[work[pos]][f];
      if (hi <= lo) continue;
      double child_impurity;
      if (classification) {
        for (; moved < pos; ++moved) {
          const auto label = static_cast<size_t>(data.labels[work[moved]]);
          --right_counts[label];
          ++left_counts[label];
        }
        auto gini_of = [](const std::vector<size_t>& counts, size_t total) {
          double g = 1.0;
          for (size_t c : counts) {
            const double p =
                static_cast<double>(c) / static_cast<double>(total);
            g -= p * p;
          }
          return g;
        };
        const double nl = static_cast<double>(pos);
        const double nr = static_cast<double>(work.size() - pos);
        child_impurity = (nl * gini_of(left_counts, pos) +
                          nr * gini_of(right_counts, work.size() - pos)) /
                         static_cast<double>(work.size());
      } else {
        // Unlike the integer class counts above, an incremental variance
        // would round differently and so change the fitted regressors; n is
        // small in our profiler datasets, so direct evaluation stays.
        auto var_range = [&](size_t b2, size_t e2) {
          const double cnt = static_cast<double>(e2 - b2);
          double m = 0.0;
          for (size_t i = b2; i < e2; ++i) m += data.targets[work[i]];
          m /= cnt;
          double v = 0.0;
          for (size_t i = b2; i < e2; ++i) {
            const double dd = data.targets[work[i]] - m;
            v += dd * dd;
          }
          return v / cnt;
        };
        const double nl = static_cast<double>(pos);
        const double nr = static_cast<double>(work.size() - pos);
        child_impurity =
            (nl * var_range(0, pos) + nr * var_range(pos, work.size())) /
            static_cast<double>(work.size());
      }
      const double score = parent_impurity - child_impurity;
      if (score > best.score + 1e-15) {
        best.valid = true;
        best.feature = f;
        best.threshold = 0.5 * (lo + hi);
        best.score = score;
      }
    }
  }
  if (!best.valid) return node_id;

  // Partition indices[begin, end) around the chosen split.
  const auto mid_it = std::stable_partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end), [&](size_t row) {
        return data.x[row][best.feature] <= best.threshold;
      });
  const size_t mid =
      static_cast<size_t>(mid_it - indices.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate split

  const int left = build(data, indices, begin, mid, depth + 1, classification,
                         num_classes, opt, rng);
  const int right = build(data, indices, mid, end, depth + 1, classification,
                          num_classes, opt, rng);
  auto& node = nodes_[static_cast<size_t>(node_id)];
  node.is_leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

}  // namespace libra::ml::reference
