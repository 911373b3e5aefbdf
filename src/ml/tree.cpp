#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace libra::ml {
namespace detail {
namespace {

struct SplitCandidate {
  bool valid = false;
  size_t feature = 0;
  double threshold = 0.0;
  double score = 0.0;  // impurity decrease; higher is better
};

/// 1 - sum of p_c^2 over the node's present classes, in class order. An
/// absent class would subtract exactly 0.0, so skipping it changes nothing.
double gini(const std::vector<size_t>& counts,
            const std::vector<size_t>& present, size_t total) {
  double g = 1.0;
  for (size_t c : present) {
    const double p =
        static_cast<double>(counts[c]) / static_cast<double>(total);
    g -= p * p;
  }
  return g;
}

/// The weighted child variance of the split of y[0, n) at p, given the
/// left side's mean. Every sum runs left to right from 0.0 over its side.
double split_variance(const double* y, size_t n, size_t p, double ml) {
  double vl = 0.0;
  for (size_t i = 0; i < p; ++i) {
    const double dd = y[i] - ml;
    vl += dd * dd;
  }
  double mr = 0.0;
  for (size_t i = p; i < n; ++i) mr += y[i];
  mr /= static_cast<double>(n - p);
  double vr = 0.0;
  for (size_t i = p; i < n; ++i) {
    const double dd = y[i] - mr;
    vr += dd * dd;
  }
  const double nl = static_cast<double>(p);
  const double nr = static_cast<double>(n - p);
  return (nl * (vl / nl) + nr * (vr / nr)) / static_cast<double>(n);
}

/// Stable partition of a[0, n) by `pred` through `spill` (n slots): the
/// rows that pass keep their order at the front, the rest follow in theirs.
/// Returns how many pass.
template <typename Pred>
size_t stable_partition_into(size_t* a, size_t n, size_t* spill, Pred pred) {
  size_t kept = 0, spilled = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = a[i];
    if (pred(row)) {
      a[kept++] = row;
    } else {
      spill[spilled++] = row;
    }
  }
  std::copy(spill, spill + spilled, a + kept);
  return kept;
}

/// Candidate split positions a regression search scores together.
constexpr size_t kLanes = 4;

/// Lanes [0, kRight) add y[b, e) to their right sums.
template <size_t kRight>
void add_right(const double* y, size_t b, size_t e, double* sum) {
  for (size_t i = b; i < e; ++i)
    for (size_t l = 0; l < kRight; ++l) sum[l] += y[i];
}

/// Over y[b, e), lanes [0, kRight) are right of their split and the rest
/// left: each adds squared deviations from its side's mean.
template <size_t kRight>
void add_squares(const double* y, size_t b, size_t e, const double* ml,
                 const double* mr, double* left_var, double* right_var) {
  for (size_t i = b; i < e; ++i) {
    for (size_t l = 0; l < kRight; ++l) {
      const double dd = y[i] - mr[l];
      right_var[l] += dd * dd;
    }
    for (size_t l = kRight; l < kLanes; ++l) {
      const double dd = y[i] - ml[l];
      left_var[l] += dd * dd;
    }
  }
}

/// split_variance at kLanes ascending positions at once. Every lane's sums
/// run left to right from 0.0 over exactly its own sides, so each result is
/// split_variance's, bit for bit.
void score_lanes(const double* y, size_t n, const size_t* pos,
                 const double* ml, double* child) {
  double sum[kLanes] = {0.0, 0.0, 0.0, 0.0};
  add_right<1>(y, pos[0], pos[1], sum);
  add_right<2>(y, pos[1], pos[2], sum);
  add_right<3>(y, pos[2], pos[3], sum);
  add_right<4>(y, pos[3], n, sum);
  double mr[kLanes];
  for (size_t l = 0; l < kLanes; ++l)
    mr[l] = sum[l] / static_cast<double>(n - pos[l]);
  double lv[kLanes] = {0.0, 0.0, 0.0, 0.0};
  double rv[kLanes] = {0.0, 0.0, 0.0, 0.0};
  add_squares<0>(y, 0, pos[0], ml, mr, lv, rv);
  add_squares<1>(y, pos[0], pos[1], ml, mr, lv, rv);
  add_squares<2>(y, pos[1], pos[2], ml, mr, lv, rv);
  add_squares<3>(y, pos[2], pos[3], ml, mr, lv, rv);
  add_squares<4>(y, pos[3], n, ml, mr, lv, rv);
  const double nd = static_cast<double>(n);
  for (size_t l = 0; l < kLanes; ++l) {
    const double nl = static_cast<double>(pos[l]);
    const double nr = static_cast<double>(n - pos[l]);
    child[l] = (nl * (lv[l] / nl) + nr * (rv[l] / nr)) / nd;
  }
}

class Builder {
 public:
  Builder(CartWorkspace& ws, const TreeOptions& opt, util::Rng& rng)
      : ws_(ws), opt_(opt), rng_(rng), m_(ws.order.size()) {}

  /// Grows the subtree over [begin, end) of the workspace's arrays and
  /// returns its root's id; nodes are numbered in preorder.
  int build(size_t begin, size_t end, int depth);

 private:
  void search_gini(size_t n, size_t f, double impurity, SplitCandidate& best);
  void search_variance(size_t n, size_t f, double impurity,
                       SplitCandidate& best);
  void consider(double score, size_t f, double lo, double hi,
                SplitCandidate& best) const {
    if (score > best.score + 1e-15) {
      best.valid = true;
      best.feature = f;
      best.threshold = 0.5 * (lo + hi);
      best.score = score;
    }
  }

  CartWorkspace& ws_;
  const TreeOptions& opt_;
  util::Rng& rng_;
  const size_t m_;
};

int Builder::build(size_t begin, size_t end, int depth) {
  const int node_id = static_cast<int>(ws_.nodes.size());
  ws_.nodes.emplace_back();
  const size_t n = end - begin;
  const double nd = static_cast<double>(n);
  const size_t* order = ws_.order.data() + begin;
  const bool stop = depth >= opt_.max_depth || n < opt_.min_samples_split;

  // Leaf value and impurity sum over the node in sample order, which the
  // stable partitions keep.
  double impurity;
  if (ws_.classification) {
    auto& counts = ws_.counts;
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) ++counts[ws_.labels[order[i]]];
    ws_.nodes[static_cast<size_t>(node_id)].value = static_cast<double>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
    if (stop) return node_id;
    ws_.present.clear();
    for (size_t c = 0; c < ws_.num_classes; ++c)
      if (counts[c] != 0) ws_.present.push_back(c);
    impurity = gini(counts, ws_.present, n);
  } else {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += ws_.targets[order[i]];
    mean /= nd;
    ws_.nodes[static_cast<size_t>(node_id)].value = mean;
    if (stop) return node_id;
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = ws_.targets[order[i]] - mean;
      var += d * d;
    }
    impurity = var / nd;
  }
  if (impurity <= 1e-12) return node_id;

  // Candidate feature subset (random forest uses sqrt(d) via max_features).
  const size_t d = ws_.features;
  std::vector<size_t> perm;
  size_t candidates = d;
  if (opt_.max_features != 0 && opt_.max_features < d) {
    perm = rng_.permutation(d);
    candidates = opt_.max_features;
  }

  SplitCandidate best;
  for (size_t k = 0; k < candidates; ++k) {
    const size_t f = perm.empty() ? k : perm[k];
    // Gather the node's rows in this feature's sorted order.
    const size_t* sorted = ws_.sorted.data() + f * m_ + begin;
    const double* xf = ws_.x.data() + f * ws_.rows;
    for (size_t i = 0; i < n; ++i) ws_.col_x[i] = xf[sorted[i]];
    if (ws_.classification) {
      for (size_t i = 0; i < n; ++i) ws_.col_label[i] = ws_.labels[sorted[i]];
      search_gini(n, f, impurity, best);
    } else {
      for (size_t i = 0; i < n; ++i) ws_.col_y[i] = ws_.targets[sorted[i]];
      search_variance(n, f, impurity, best);
    }
  }
  if (!best.valid) return node_id;

  // Partition every array by the split's own test. The split feature's
  // sorted range is already partitioned: the rows that pass are a prefix.
  const double* xb = ws_.x.data() + best.feature * ws_.rows;
  const double threshold = best.threshold;
  const auto goes_left = [xb, threshold](size_t row) {
    return xb[row] <= threshold;
  };
  const size_t mid = begin + stable_partition_into(ws_.order.data() + begin,
                                                   n, ws_.spill.data(),
                                                   goes_left);
  if (mid == begin || mid == end) return node_id;  // degenerate split
  for (size_t f = 0; f < d; ++f)
    if (f != best.feature)
      stable_partition_into(ws_.sorted.data() + f * m_ + begin, n,
                            ws_.spill.data(), goes_left);

  const int left = build(begin, mid, depth + 1);
  const int right = build(mid, end, depth + 1);
  auto& node = ws_.nodes[static_cast<size_t>(node_id)];
  node.is_leaf = false;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

void Builder::search_gini(size_t n, size_t f, double impurity,
                          SplitCandidate& best) {
  auto& left = ws_.left;
  auto& right = ws_.right;
  for (size_t c : ws_.present) {
    left[c] = 0;
    right[c] = ws_.counts[c];
  }
  const double* x = ws_.col_x.data();
  const size_t* label = ws_.col_label.data();
  const double nd = static_cast<double>(n);
  size_t moved = 0;
  // Evaluate splits between consecutive distinct values.
  for (size_t pos = opt_.min_samples_leaf; pos + opt_.min_samples_leaf <= n;
       ++pos) {
    if (pos == 0 || pos == n) continue;
    const double lo = x[pos - 1];
    const double hi = x[pos];
    if (hi <= lo) continue;
    for (; moved < pos; ++moved) {
      --right[label[moved]];
      ++left[label[moved]];
    }
    const double nl = static_cast<double>(pos);
    const double nr = static_cast<double>(n - pos);
    const double child = (nl * gini(left, ws_.present, pos) +
                          nr * gini(right, ws_.present, n - pos)) /
                         nd;
    consider(impurity - child, f, lo, hi, best);
  }
}

void Builder::search_variance(size_t n, size_t f, double impurity,
                              SplitCandidate& best) {
  const double* x = ws_.col_x.data();
  const double* y = ws_.col_y.data();
  // Unlike the integer class counts, an incremental variance would round
  // differently and so change the fitted regressors. Each side's mean and
  // variance are the direct ones; only the left sum is shared, as an exact
  // running prefix. Four candidate positions are scored at once, so their
  // independent sums overlap in the pipeline.
  size_t pos[kLanes];
  double ml[kLanes];
  size_t lanes = 0;
  double prefix = 0.0;
  size_t summed = 0;
  for (size_t p = opt_.min_samples_leaf; p + opt_.min_samples_leaf <= n;
       ++p) {
    if (p == 0 || p == n) continue;
    if (x[p] <= x[p - 1]) continue;
    for (; summed < p; ++summed) prefix += y[summed];
    pos[lanes] = p;
    ml[lanes] = prefix / static_cast<double>(p);
    if (++lanes < kLanes) continue;
    double child[kLanes];
    score_lanes(y, n, pos, ml, child);
    for (size_t l = 0; l < kLanes; ++l)
      consider(impurity - child[l], f, x[pos[l] - 1], x[pos[l]], best);
    lanes = 0;
  }
  for (size_t l = 0; l < lanes; ++l)
    consider(impurity - split_variance(y, n, pos[l], ml[l]), f,
             x[pos[l] - 1], x[pos[l]], best);
}

}  // namespace

CartWorkspace::CartWorkspace(const Dataset& data, bool is_classification,
                             int class_count)
    : classification(is_classification),
      num_classes(is_classification
                      ? static_cast<size_t>(std::max(class_count, 0))
                      : 0),
      rows(data.size()),
      features(data.num_features()) {
  if (classification ? !data.has_labels() : !data.has_targets())
    throw std::invalid_argument(classification ? "Cart: need labels"
                                               : "Cart: need targets");
  x.resize(features * rows);
  for (size_t r = 0; r < rows; ++r) {
    const FeatureRow& row = data.x[r];
    if (row.size() != features)
      throw std::invalid_argument("Cart: row " + std::to_string(r) + " has " +
                                  std::to_string(row.size()) +
                                  " features, expected " +
                                  std::to_string(features));
    for (size_t f = 0; f < features; ++f) {
      if (!std::isfinite(row[f]))
        throw std::invalid_argument("Cart: non-finite feature " +
                                    std::to_string(f) + " in row " +
                                    std::to_string(r));
      x[f * rows + r] = row[f];
    }
  }
  // The one sort per feature per fit; a tree lays its sample out in this
  // order by counting, and splits keep every node's range sorted.
  by_x.resize(features * rows);
  for (size_t f = 0; f < features; ++f) {
    const auto first = by_x.begin() + static_cast<long>(f * rows);
    for (size_t r = 0; r < rows; ++r) first[static_cast<long>(r)] = r;
    const double* xf = x.data() + f * rows;
    std::sort(first, first + static_cast<long>(rows), [xf](size_t a, size_t b) {
      return xf[a] < xf[b] || (xf[a] == xf[b] && a < b);
    });
  }
  copies.assign(rows, 0);
  if (classification) {
    labels.resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      if (data.labels[r] < 0 ||
          static_cast<size_t>(data.labels[r]) >= num_classes)
        throw std::invalid_argument(
            "Cart: label " + std::to_string(data.labels[r]) + " in row " +
            std::to_string(r) + " outside [0, " + std::to_string(num_classes) +
            ")");
      labels[r] = static_cast<size_t>(data.labels[r]);
    }
    counts.assign(num_classes, 0);
    left.assign(num_classes, 0);
    right.assign(num_classes, 0);
    present.reserve(num_classes);
  } else {
    targets = data.targets;
  }
}

void Cart::fit(const Dataset& data, const std::vector<size_t>& sample_indices,
               bool classification, int num_classes, const TreeOptions& opt) {
  CartWorkspace ws(data, classification, num_classes);
  fit(ws, sample_indices, opt);
}

void Cart::fit(CartWorkspace& ws, const std::vector<size_t>& sample_indices,
               const TreeOptions& opt) {
  if (sample_indices.empty())
    throw std::invalid_argument("Cart: empty training sample");
  const size_t m = sample_indices.size();
  ws.order.assign(sample_indices.begin(), sample_indices.end());
  // Each feature's sorted sample: the presorted rows, each repeated as often
  // as the sample draws it.
  for (size_t row : sample_indices) {
    if (row >= ws.rows) {
      std::fill(ws.copies.begin(), ws.copies.end(), 0);
      throw std::invalid_argument("Cart: sample row " + std::to_string(row) +
                                  " outside the dataset's " +
                                  std::to_string(ws.rows));
    }
    ++ws.copies[row];
  }
  ws.sorted.resize(ws.features * m);
  for (size_t f = 0; f < ws.features; ++f) {
    size_t* out = ws.sorted.data() + f * m;
    const size_t* by_x = ws.by_x.data() + f * ws.rows;
    for (size_t r = 0; r < ws.rows; ++r)
      out = std::fill_n(out, ws.copies[by_x[r]], by_x[r]);
  }
  std::fill(ws.copies.begin(), ws.copies.end(), 0);
  ws.spill.resize(m);
  ws.col_x.resize(m);
  if (ws.classification) {
    ws.col_label.resize(m);
  } else {
    ws.col_y.resize(m);
  }
  // Every leaf holds at least one sample, so a tree has at most 2m - 1 nodes.
  ws.nodes.clear();
  ws.nodes.reserve(2 * m - 1);
  util::Rng rng(opt.seed);
  Builder(ws, opt, rng).build(0, m, 0);
  nodes_.assign(ws.nodes.begin(), ws.nodes.end());
}

double Cart::predict(const FeatureRow& row) const {
  if (nodes_.empty()) throw std::logic_error("Cart: predict before fit");
  int cur = 0;
  while (!nodes_[static_cast<size_t>(cur)].is_leaf) {
    const auto& n = nodes_[static_cast<size_t>(cur)];
    cur = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[static_cast<size_t>(cur)].value;
}

void Cart::append_thresholds(std::vector<double>& out) const {
  for (const auto& n : nodes_)
    if (!n.is_leaf) out.push_back(n.threshold);
}

int Cart::depth() const {
  // Iterative depth computation over the flat array.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<int, int>> stack = {{0, 1}};
  int best = 0;
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const auto& n = nodes_[static_cast<size_t>(id)];
    if (!n.is_leaf) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

}  // namespace detail

void DecisionTreeClassifier::fit(const Dataset& data) {
  if (!data.has_labels() || data.size() == 0)
    throw std::invalid_argument("DecisionTreeClassifier: need labels");
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  tree_.fit(data, all, /*classification=*/true, data.num_classes(), opt_);
}

int DecisionTreeClassifier::predict(const FeatureRow& row) const {
  return static_cast<int>(tree_.predict(row));
}

void DecisionTreeRegressor::fit(const Dataset& data) {
  if (!data.has_targets() || data.size() == 0)
    throw std::invalid_argument("DecisionTreeRegressor: need targets");
  std::vector<size_t> all(data.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  tree_.fit(data, all, /*classification=*/false, 0, opt_);
}

double DecisionTreeRegressor::predict(const FeatureRow& row) const {
  return tree_.predict(row);
}

}  // namespace libra::ml
