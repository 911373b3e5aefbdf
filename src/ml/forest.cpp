#include "ml/forest.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace libra::ml {
namespace {

/// Fills `idx` with a bootstrap sample: max(1, fraction * n) rows drawn
/// with replacement.
void bootstrap_sample(size_t n, double fraction, util::Rng& rng,
                      std::vector<size_t>& idx) {
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n)));
  idx.resize(m);
  for (size_t i = 0; i < m; ++i)
    idx[i] = static_cast<size_t>(rng.uniform_int(0, static_cast<int64_t>(n) - 1));
}

size_t default_max_features(size_t d, size_t requested) {
  if (requested != 0) return requested;
  // Random forests decorrelate trees by subsampling features; with our
  // 1-D profiler features sqrt(d) == d, so this only matters for wider data.
  return std::max<size_t>(1, static_cast<size_t>(std::sqrt(
                                 static_cast<double>(d))));
}

/// Fits `trees` on bootstrap samples of `data`, all through one workspace.
/// Rejects options a fit would turn into undefined behaviour or an empty
/// forest.
void fit_forest(const char* who, const ForestOptions& opt, const Dataset& data,
                bool classification, int num_classes,
                std::vector<detail::Cart>& trees) {
  if (opt.num_trees < 1)
    throw std::invalid_argument(std::string(who) +
                                ": num_trees must be >= 1, got " +
                                std::to_string(opt.num_trees));
  // fraction * n is cast to size_t: NaN, a negative or a huge fraction
  // would make that cast undefined.
  if (!(opt.sample_fraction > 0.0 && opt.sample_fraction <= 1.0))
    throw std::invalid_argument(std::string(who) +
                                ": sample_fraction must be in (0, 1], got " +
                                std::to_string(opt.sample_fraction));
  detail::CartWorkspace ws(data, classification, num_classes);
  trees.assign(static_cast<size_t>(opt.num_trees), {});
  util::Rng rng(opt.seed);
  TreeOptions topt = opt.tree;
  topt.max_features = default_max_features(data.num_features(),
                                           opt.tree.max_features);
  std::vector<size_t> sample;
  for (auto& tree : trees) {
    topt.seed = rng.next_u64();
    bootstrap_sample(data.size(), opt.sample_fraction, rng, sample);
    tree.fit(ws, sample, topt);
  }
}

}  // namespace

void RandomForestClassifier::fit(const Dataset& data) {
  if (!data.has_labels() || data.size() == 0)
    throw std::invalid_argument("RandomForestClassifier: need labels");
  num_classes_ = data.num_classes();
  fit_forest("RandomForestClassifier", opt_, data, /*classification=*/true,
             num_classes_, trees_);
}

int RandomForestClassifier::predict(const FeatureRow& row) const {
  if (trees_.empty())
    throw std::logic_error("RandomForestClassifier: predict before fit");
  std::vector<size_t> votes(static_cast<size_t>(num_classes_), 0);
  for (const auto& tree : trees_)
    ++votes[static_cast<size_t>(tree.predict(row))];
  return static_cast<int>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

void RandomForestRegressor::fit(const Dataset& data) {
  if (!data.has_targets() || data.size() == 0)
    throw std::invalid_argument("RandomForestRegressor: need targets");
  fit_forest("RandomForestRegressor", opt_, data, /*classification=*/false, 0,
             trees_);
}

double RandomForestRegressor::predict(const FeatureRow& row) const {
  if (trees_.empty())
    throw std::logic_error("RandomForestRegressor: predict before fit");
  double total = 0.0;
  for (const auto& tree : trees_) total += tree.predict(row);
  return total / static_cast<double>(trees_.size());
}

}  // namespace libra::ml
