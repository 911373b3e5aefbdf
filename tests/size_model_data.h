// Profiler-shaped training data, shared by the breakpoint-table and CART
// reference tests: one feature (input size, log-uniform over the
// duplicator's rescale range), CPU and memory classes that step with size
// plus noise, and a duration that grows with size.
#pragma once

#include <cmath>
#include <cstdint>

#include "ml/dataset.h"
#include "util/rng.h"

namespace libra::testdata {

struct SizeModelData {
  ml::Dataset cpu;  // classes 2..8 (lower ones absent)
  ml::Dataset mem;  // mem_class_mb wide classes
  ml::Dataset dur;  // regression
};

inline SizeModelData size_model_data(uint64_t seed, double mem_class_mb) {
  util::Rng rng(seed);
  SizeModelData d;
  for (int i = 0; i < 70; ++i) {
    const double size = 4.0 * std::exp(rng.uniform(std::log(0.2),
                                                   std::log(100.0)));
    const ml::FeatureRow row = {size};
    d.cpu.add_classification(
        row, static_cast<int>(std::lround(1.0 + std::log2(size) / 2.0 +
                                          rng.normal(0.0, 0.4))) +
                 2);
    d.mem.add_classification(
        row, static_cast<int>((64.0 + 6.0 * size + rng.normal(0.0, 40.0)) /
                              mem_class_mb) +
                 1);
    d.dur.add_regression(row, 0.5 + 0.05 * size + rng.normal(0.0, 0.1));
  }
  return d;
}

}  // namespace libra::testdata
