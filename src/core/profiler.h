// Libra's profiler (§4): transparent estimation of CPU peak, memory peak and
// execution time from the input *size* only.
//
// Workflow per function (Fig. 3):
//   1. First invocation: served with the user configuration. Meanwhile the
//      workload duplicator rescales the input into up to `duplicates` sizes,
//      pilot-executes each with full allocation, labels the dataset with the
//      observed metrics, and trains three ML models (two RF classifiers for
//      the CPU/memory peak classes, one RF regressor for execution time).
//   2. The 7:3 train/test metrics decide relatedness: accuracy and R² above
//      the thresholds => input-size-related => ML models serve predictions.
//   3. Otherwise the function is treated as a black box: invocations within
//      a profiling window are served with maximum allocation to observe real
//      peaks, histogram models accumulate online, and predictions use the
//      tail/head percentiles (p99 peaks / p5 duration, §4.3.2).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "ml/forest.h"
#include "ml/histogram.h"
#include "sim/function.h"

namespace libra::core {

struct ProfilerConfig {
  /// Workload duplicator fan-out (paper: "maximum of 100 times").
  static constexpr int duplicates = 100;
  /// Log-uniform rescale factor range applied to the first input's size.
  static constexpr double scale_lo = 0.2;
  static constexpr double scale_hi = 100.0;
  static constexpr double train_fraction = 0.7;  // 7:3 split
  /// Relatedness thresholds on held-out metrics (§8.6 suggests ~0.9).
  static constexpr double accuracy_threshold = 0.8;
  static constexpr double r2_threshold = 0.8;
  /// Histogram profiling window (invocations served at max allocation).
  static constexpr int profiling_window = 6;
  /// Percentiles for black-box estimation (§4.3.2, after [36]).
  static constexpr double peak_percentile = 99.0;
  static constexpr double duration_percentile = 5.0;
  /// Platform-wide maximum allocation used for probing black boxes.
  static constexpr sim::Resources profiling_max{8.0, 2048.0};
  /// Memory-peak class width (MB) for the classification formulation.
  static constexpr double mem_class_mb = 256.0;
  /// Force one model family (Fig. 13(a) ablations).
  bool force_ml = false;
  bool force_histogram = false;
  uint64_t seed = 1234;

  /// Throws std::invalid_argument when force_ml and force_histogram are both
  /// set.
  void validate() const;
};

static_assert(ProfilerConfig::duplicates >= 2,
              "the duplicator needs two samples to split train/test");
static_assert(0.0 < ProfilerConfig::scale_lo &&
              ProfilerConfig::scale_lo < ProfilerConfig::scale_hi);
static_assert(0.0 < ProfilerConfig::train_fraction &&
              ProfilerConfig::train_fraction < 1.0);
static_assert(ProfilerConfig::profiling_window > 0);
static_assert(ProfilerConfig::peak_percentile >= 0.0 &&
              ProfilerConfig::peak_percentile <= 100.0 &&
              ProfilerConfig::duration_percentile >= 0.0 &&
              ProfilerConfig::duration_percentile <= 100.0);

/// The three size-related models of one function (§4.3.1): RF classifiers
/// for the CPU and memory peak classes, an RF regressor for execution time.
struct SizeModels {
  ml::RandomForestClassifier cpu_clf;
  ml::RandomForestClassifier mem_clf;
  ml::RandomForestRegressor dur_reg;

  /// The serving memo the forests give for an input of `size`; memory
  /// classes are `mem_class_mb` wide.
  sim::PredictionMemo predict(double size, double mem_class_mb) const;
};

/// SizeModels compiled for serving (DESIGN.md §5m). Input size is the only
/// feature, so every tree sends all sizes in one interval (t[k-1], t[k]]
/// between adjacent split thresholds to the same leaf. The table keeps the
/// sorted unique thresholds of all trees and one memo per interval, and
/// lookup() returns exactly what SizeModels::predict would, for any size.
class BreakpointTable {
 public:
  BreakpointTable() = default;
  BreakpointTable(const SizeModels& models, double mem_class_mb);

  /// One binary search. Throws std::logic_error on an empty table.
  const sim::PredictionMemo& lookup(double size) const;
  size_t intervals() const { return memos_.size(); }
  const std::vector<double>& thresholds() const { return thresholds_; }

 private:
  std::vector<double> thresholds_;          // ascending, unique
  std::vector<sim::PredictionMemo> memos_;  // thresholds_.size() + 1 entries
};

class Profiler final : public DemandPredictor {
 public:
  /// `catalog` is the profiler's pilot-run oracle: the workload duplicator
  /// "executes" the function on rescaled inputs through it. That mirrors the
  /// real system, which actually runs the duplicated invocations (§4.2) —
  /// it is observation, not clairvoyance: predictions for live invocations
  /// only ever use the trained models.
  Profiler(ProfilerConfig cfg, std::shared_ptr<const sim::FunctionCatalog> catalog);

  std::string name() const override { return "libra-profiler"; }
  void predict(sim::Invocation& inv) override;
  void observe(const Observation& obs) override;

  /// Offline initialization (§8.2.3): trains the per-function models on a
  /// duplicator dataset seeded from a sampled input and fills the histogram
  /// models with historical observations, so the evaluation trace is pure
  /// held-out test data. Functions train on up to four threads; the models
  /// do not depend on how many (DESIGN.md §5m). A training error is
  /// rethrown here, the first in catalog order.
  void prewarm(const sim::FunctionCatalog& catalog, uint64_t seed,
               int samples_per_function) override;

  /// Training metrics of a profiled function (for the §8.6 analysis).
  struct TrainMetrics {
    double cpu_accuracy = 0.0;
    double mem_accuracy = 0.0;
    double duration_r2 = 0.0;
    bool classified_size_related = false;
  };
  std::optional<TrainMetrics> train_metrics(sim::FunctionId func) const;
  /// The breakpoint table serving an ML-mode function; nullptr otherwise.
  const BreakpointTable* ml_table(sim::FunctionId func) const;

  /// OOM-mitigation #3 (§5.1): functions that repeatedly trip the memory
  /// safeguard stop having memory harvested; the policy reports strikes.
  void record_mem_safeguard_strike(sim::FunctionId func);
  bool mem_harvest_disabled(sim::FunctionId func, int max_strikes) const;

  /// Degraded serving path: predicts from the §4.3.2 histogram models even
  /// when the function is classified size-related, for when the ML serving
  /// path is unavailable (predictor outage) or no longer trusted (the trust
  /// circuit breaker's HALF_OPEN probation tier). Untrained functions are
  /// served with the user configuration.
  void predict_fallback(sim::Invocation& inv);

 private:
  enum class Mode { kUntrained, kMl, kHistogram };

  struct FuncState {
    Mode mode = Mode::kUntrained;
    /// Filled in ML mode only; the forests it was compiled from are freed
    /// after training, since serving never reads them.
    BreakpointTable ml_table;
    TrainMetrics metrics;
    ml::HistogramModel hist_cpu{0.0, 64.0, 128};
    ml::HistogramModel hist_mem{0.0, 8192.0, 256};
    ml::HistogramModel hist_dur{0.0, 300.0, 300};
    int observations = 0;
    int mem_strikes = 0;
    double pilot_median_duration = 1.0;
  };

  /// Writes only `state`, so functions can train concurrently.
  void train_function(sim::FunctionId func, const sim::InputSpec& first_input,
                      FuncState& state) const;
  void log_trained(sim::FunctionId func, const FuncState& state) const;
  /// Pure histogram serving path, shared by predict() and
  /// predict_fallback(): builds the memo, never touches state.
  sim::PredictionMemo memo_histogram(const FuncState& state,
                                     const sim::Invocation& inv) const;

  ProfilerConfig cfg_;
  std::shared_ptr<const sim::FunctionCatalog> catalog_;
  std::unordered_map<sim::FunctionId, FuncState> functions_;
  util::Rng rng_;
};

}  // namespace libra::core
