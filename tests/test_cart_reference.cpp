// ml::detail::Cart against the reference trainer it replaced
// (cart_reference.h): the presorted, partitioning trainer must build the
// same TreeNode arrays bit for bit whenever rows tied on a feature share a
// target. In the profiler's data the only ties are bootstrap copies of one
// row, which is what these datasets hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cart_reference.h"
#include "ml/dataset.h"
#include "ml/tree.h"
#include "size_model_data.h"

namespace libra::ml {
namespace {

using detail::TreeNode;

/// Rows drawn with replacement, as the forest's bootstrap draws them.
std::vector<size_t> bootstrap(size_t n, util::Rng& rng) {
  std::vector<size_t> idx(n);
  for (auto& i : idx)
    i = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
  return idx;
}

void expect_same_tree(const Dataset& data, const std::vector<size_t>& sample,
                      bool classification, const TreeOptions& opt,
                      const std::string& what) {
  const int classes = classification ? data.num_classes() : 0;
  reference::ReferenceCart want;
  want.fit(data, sample, classification, classes, opt);
  detail::Cart got;
  got.fit(data, sample, classification, classes, opt);
  const std::vector<TreeNode>& a = want.nodes();
  const std::vector<TreeNode>& b = got.nodes();
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(what + ", node " + std::to_string(i));
    EXPECT_EQ(a[i].is_leaf, b[i].is_leaf);
    EXPECT_EQ(a[i].feature, b[i].feature);
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].threshold),
              std::bit_cast<uint64_t>(b[i].threshold));
    EXPECT_EQ(a[i].left, b[i].left);
    EXPECT_EQ(a[i].right, b[i].right);
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].value),
              std::bit_cast<uint64_t>(b[i].value));
  }
}

size_t present_classes(const Dataset& data) {
  return std::set<int>(data.labels.begin(), data.labels.end()).size();
}

TEST(CartReference, ProfilerShapedDataAtEveryLeafSizeAndDepth) {
  std::set<size_t> class_counts;
  for (uint64_t seed : {1, 2, 3}) {
    // Memory classes from 1600 MB wide down to 250 MB wide give 2 to 9
    // present classes; the CPU classes leave classes 0 and 1 absent.
    for (double width : {1600, 800, 600, 480, 400, 340, 300, 270, 250}) {
      const auto data = testdata::size_model_data(seed, width);
      class_counts.insert(present_classes(data.mem));
      util::Rng rng(seed * 10000 + static_cast<uint64_t>(width));
      for (size_t leaf : {1, 3}) {
        for (int depth : {2, 10, 12}) {
          TreeOptions opt;
          opt.min_samples_leaf = leaf;
          opt.max_depth = depth;
          opt.seed = rng.next_u64();
          const std::string what = "seed " + std::to_string(seed) +
                                   " width " + std::to_string(width) +
                                   " leaf " +
                                   std::to_string(leaf) + " depth " +
                                   std::to_string(depth);
          const auto sample = bootstrap(data.mem.size(), rng);
          expect_same_tree(data.mem, sample, true, opt, "mem " + what);
          expect_same_tree(data.cpu, sample, true, opt, "cpu " + what);
          expect_same_tree(data.dur, sample, false, opt, "dur " + what);
        }
      }
    }
  }
  for (size_t k = 2; k <= 9; ++k)
    EXPECT_EQ(class_counts.count(k), 1u) << k << " classes never came up";
}

TEST(CartReference, WideDataWithFeatureSubsampling) {
  for (size_t d : {3, 4}) {
    for (uint64_t seed : {5, 6}) {
      util::Rng rng(seed + d);
      Dataset clf, reg;
      for (int i = 0; i < 60; ++i) {
        FeatureRow row(d);
        for (auto& v : row) v = rng.uniform(-10.0, 10.0);  // distinct values
        const double s = row[0] - 0.5 * row[1] + 0.25 * row[d - 1];
        clf.add_classification(
            row, std::clamp(static_cast<int>(s / 4.0 + 3.0 +
                                              rng.normal(0.0, 0.5)),
                            0, 5));
        reg.add_regression(row, s + rng.normal(0.0, 1.0));
      }
      for (size_t leaf : {1, 3}) {
        TreeOptions opt;
        opt.min_samples_leaf = leaf;
        opt.max_features = 2;  // < d: every node draws a permutation
        opt.seed = seed * 31 + leaf;
        const std::string what = "d " + std::to_string(d) + " seed " +
                                 std::to_string(seed) + " leaf " +
                                 std::to_string(leaf);
        const auto sample = bootstrap(clf.size(), rng);
        expect_same_tree(clf, sample, true, opt, "clf " + what);
        expect_same_tree(reg, sample, false, opt, "reg " + what);
      }
    }
  }
}

TEST(CartReference, AllEqualFeature) {
  util::Rng rng(9);
  Dataset flat, mixed_clf, mixed_reg;
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    flat.add_regression({2.5}, x);
    mixed_clf.add_classification({2.5, x}, x < 0.5 ? 0 : 1);
    mixed_reg.add_regression({2.5, x}, x * x);
  }
  TreeOptions opt;  // every feature is a candidate at every node
  std::vector<size_t> all(flat.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  for (const auto& sample : {all, bootstrap(flat.size(), rng)}) {
    expect_same_tree(flat, sample, false, opt, "flat");
    expect_same_tree(mixed_clf, sample, true, opt, "mixed clf");
    expect_same_tree(mixed_reg, sample, false, opt, "mixed reg");
  }
  detail::Cart leaf;
  leaf.fit(flat, all, false, 0, opt);
  EXPECT_EQ(leaf.node_count(), 1u) << "no split separates equal values";
}

}  // namespace
}  // namespace libra::ml
