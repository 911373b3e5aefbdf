#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "core/window_predictors.h"
#include "gen/synthetic_source.h"
#include "ml/dataset.h"
#include "size_model_data.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra::core {
namespace {

using sim::Invocation;
using sim::Resources;

Invocation sample_invocation(const sim::FunctionCatalog& cat, int func,
                             uint64_t seed) {
  util::Rng rng(seed);
  return workload::make_invocation(cat, 0, func,
                                   cat.at(func).sample_input(rng), 0.0);
}

TEST(UserConfigPredictor, PredictsExactlyUserAllocation) {
  UserConfigPredictor p;
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 0, 1);
  p.predict(inv);
  EXPECT_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
  EXPECT_FALSE(inv.accelerable());
}

TEST(MovingWindow, ColdStartFallsBackToUserAlloc) {
  MovingWindowPredictor p(5);
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 1, 2);
  p.predict(inv);
  EXPECT_TRUE(inv.first_seen);
  EXPECT_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
}

TEST(MovingWindow, PredictsWindowMaximum) {
  MovingWindowPredictor p(3);
  Observation obs;
  obs.func = 1;
  for (double cpu : {1.0, 3.0, 2.0}) {
    obs.observed_peak = {cpu, cpu * 100};
    obs.exec_duration = cpu;
    p.observe(obs);
  }
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 1, 3);
  p.predict(inv);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, 3.0);
  EXPECT_DOUBLE_EQ(inv.pred_demand.mem, 300.0);
  EXPECT_DOUBLE_EQ(inv.pred_duration, 3.0);
}

TEST(MovingWindow, OldObservationsAgeOut) {
  MovingWindowPredictor p(2);
  Observation obs;
  obs.func = 1;
  obs.observed_peak = {8.0, 800};
  obs.exec_duration = 8;
  p.observe(obs);
  obs.observed_peak = {1.0, 100};
  obs.exec_duration = 1;
  p.observe(obs);
  p.observe(obs);  // the 8-core observation falls out of the window
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 1, 4);
  p.predict(inv);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, 1.0);
}

TEST(Ewma, ConvergesTowardRecentObservations) {
  EwmaPredictor p(0.5);
  Observation obs;
  obs.func = 2;
  obs.observed_peak = {4.0, 400};
  obs.exec_duration = 10;
  p.observe(obs);
  obs.observed_peak = {2.0, 200};
  obs.exec_duration = 6;
  for (int i = 0; i < 10; ++i) p.observe(obs);
  const auto cat = workload::sebs_catalog();
  auto inv = sample_invocation(cat, 2, 5);
  p.predict(inv);
  EXPECT_NEAR(inv.pred_demand.cpu, 2.0, 0.05);
  EXPECT_NEAR(inv.pred_duration, 6.0, 0.1);
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = std::make_shared<const sim::FunctionCatalog>(
        workload::sebs_catalog());
    ProfilerConfig cfg;
    profiler_ = std::make_unique<Profiler>(cfg, catalog_);
  }
  std::shared_ptr<const sim::FunctionCatalog> catalog_;
  std::unique_ptr<Profiler> profiler_;
};

TEST_F(ProfilerTest, FirstInvocationServedWithUserConfig) {
  auto inv = sample_invocation(*catalog_, 0, 6);
  profiler_->predict(inv);
  EXPECT_TRUE(inv.first_seen);
  EXPECT_DOUBLE_EQ(inv.pred_demand.cpu, inv.user_alloc.cpu);
}

TEST_F(ProfilerTest, ClassifiesAllTenFunctionsCorrectly) {
  profiler_->prewarm(*catalog_, 1234, 20);
  for (int f = 0; f < 10; ++f) {
    const auto metrics = profiler_->train_metrics(f);
    ASSERT_TRUE(metrics.has_value()) << "func " << f;
    EXPECT_EQ(metrics->classified_size_related,
              catalog_->at(f).size_related())
        << "func " << catalog_->at(f).name();
  }
}

TEST_F(ProfilerTest, SizeRelatedPredictionsTrackDemand) {
  profiler_->prewarm(*catalog_, 1234, 20);
  util::Rng rng(7);
  double abs_err = 0;
  int n = 0;
  for (int i = 0; i < 60; ++i) {
    auto inv = workload::make_invocation(
        *catalog_, i, /*DH*/ 4, catalog_->at(4).sample_input(rng), 0.0);
    profiler_->predict(inv);
    EXPECT_FALSE(inv.first_seen);
    EXPECT_TRUE(inv.pred_size_related);
    abs_err += std::abs(inv.pred_demand.cpu - inv.truth.demand.cpu);
    ++n;
  }
  // Spikes (~6%) are unpredictable by design; the average error stays small.
  EXPECT_LT(abs_err / n, 1.0);
}

TEST_F(ProfilerTest, UnrelatedPredictionsAreConservativeTail) {
  profiler_->prewarm(*catalog_, 1234, 40);
  util::Rng rng(8);
  auto inv = workload::make_invocation(*catalog_, 0, /*VP*/ 5,
                                       catalog_->at(5).sample_input(rng), 0.0);
  profiler_->predict(inv);
  EXPECT_FALSE(inv.pred_size_related);
  // p99 of a 2..8 core demand distribution: near the top.
  EXPECT_GE(inv.pred_demand.cpu, 6.0);
}

TEST_F(ProfilerTest, ProfilingWindowProbesBeforeHistogramReady) {
  // Without prewarm, the first VP invocation trains (histogram mode), and
  // subsequent ones inside the window are probes at the platform max.
  auto first = sample_invocation(*catalog_, 5, 9);
  profiler_->predict(first);
  EXPECT_TRUE(first.first_seen);
  auto second = sample_invocation(*catalog_, 5, 10);
  profiler_->predict(second);
  EXPECT_TRUE(second.profiling_probe);
  EXPECT_GE(second.pred_demand.cpu, 8.0);
}

TEST_F(ProfilerTest, MemStrikesDisableMemoryHarvesting) {
  EXPECT_FALSE(profiler_->mem_harvest_disabled(3, 3));
  profiler_->record_mem_safeguard_strike(3);
  profiler_->record_mem_safeguard_strike(3);
  EXPECT_FALSE(profiler_->mem_harvest_disabled(3, 3));
  profiler_->record_mem_safeguard_strike(3);
  EXPECT_TRUE(profiler_->mem_harvest_disabled(3, 3));
}

TEST_F(ProfilerTest, ForceFlagsOverrideClassification) {
  ProfilerConfig hist_cfg;
  hist_cfg.force_histogram = true;
  Profiler hist(hist_cfg, catalog_);
  hist.prewarm(*catalog_, 1, 20);
  EXPECT_FALSE(hist.train_metrics(0)->classified_size_related);

  ProfilerConfig ml_cfg;
  ml_cfg.force_ml = true;
  Profiler ml(ml_cfg, catalog_);
  ml.prewarm(*catalog_, 1, 20);
  EXPECT_TRUE(ml.train_metrics(5)->classified_size_related);

  ProfilerConfig bad;
  bad.force_ml = bad.force_histogram = true;
  EXPECT_THROW(Profiler(bad, catalog_), std::invalid_argument);
}

TEST_F(ProfilerTest, TrainMetricsShowTableTwoShape) {
  profiler_->prewarm(*catalog_, 1234, 20);
  // Size-related functions: high accuracy, high R².
  for (int f = 0; f < 5; ++f) {
    const auto m = *profiler_->train_metrics(f);
    EXPECT_GE(m.cpu_accuracy, 0.8) << f;
    EXPECT_GE(m.duration_r2, 0.8) << f;
  }
  // Size-unrelated: poor accuracy and/or non-positive R² (Table 2 bottom).
  for (int f = 5; f < 10; ++f) {
    const auto m = *profiler_->train_metrics(f);
    EXPECT_TRUE(m.cpu_accuracy < 0.8 || m.duration_r2 < 0.5) << f;
  }
}

void expect_same_memo(const sim::PredictionMemo& got,
                      const sim::PredictionMemo& want, double size) {
  EXPECT_EQ(got.pred_demand.cpu, want.pred_demand.cpu) << "size " << size;
  EXPECT_EQ(got.pred_demand.mem, want.pred_demand.mem) << "size " << size;
  EXPECT_EQ(got.pred_duration, want.pred_duration) << "size " << size;
  EXPECT_EQ(got.pred_size_related, want.pred_size_related) << "size " << size;
  EXPECT_EQ(got.first_seen, want.first_seen) << "size " << size;
  EXPECT_EQ(got.profiling_probe, want.profiling_probe) << "size " << size;
}

SizeModels fit_size_models(uint64_t seed, double mem_class_mb) {
  const auto data = testdata::size_model_data(seed, mem_class_mb);
  ml::ForestOptions opt;
  opt.seed = seed * 7 + 1;
  opt.tree.min_samples_leaf = 3;
  opt.tree.max_depth = 10;
  SizeModels models{ml::RandomForestClassifier(opt),
                    ml::RandomForestClassifier(opt),
                    ml::RandomForestRegressor(opt)};
  models.cpu_clf.fit(data.cpu);
  models.mem_clf.fit(data.mem);
  models.dur_reg.fit(data.dur);
  return models;
}

TEST(BreakpointTable, LookupEqualsTheForestsEverywhere) {
  constexpr double kMemClassMb = 256.0;
  const double inf = std::numeric_limits<double>::infinity();
  for (uint64_t seed : {1, 2, 3}) {
    const SizeModels models = fit_size_models(seed, kMemClassMb);
    const BreakpointTable table(models, kMemClassMb);
    std::vector<double> thresholds;
    models.cpu_clf.append_thresholds(thresholds);
    models.mem_clf.append_thresholds(thresholds);
    models.dur_reg.append_thresholds(thresholds);
    ASSERT_GT(table.intervals(), 20u) << "the forests should split often";

    std::vector<double> sizes = {0.0, inf, -inf,
                                 std::numeric_limits<double>::quiet_NaN()};
    for (double t : thresholds) {
      sizes.push_back(t);
      sizes.push_back(std::nextafter(t, -inf));
      sizes.push_back(std::nextafter(t, inf));
    }
    util::Rng rng(seed + 100);
    for (int i = 0; i < 1000; ++i)
      sizes.push_back(std::exp(rng.uniform(std::log(0.1), std::log(2000.0))));
    for (double size : sizes)
      expect_same_memo(table.lookup(size), models.predict(size, kMemClassMb),
                       size);
  }
}

TEST(BreakpointTable, EmptyTableThrows) {
  EXPECT_THROW(BreakpointTable().lookup(1.0), std::logic_error);
}

uint64_t fold(uint64_t h, uint64_t v) { return util::mix64(h ^ v); }
uint64_t bits(double d) { return std::bit_cast<uint64_t>(d); }

uint64_t fold_memo(uint64_t h, const sim::PredictionMemo& m) {
  h = fold(h, bits(m.pred_demand.cpu));
  h = fold(h, bits(m.pred_demand.mem));
  h = fold(h, bits(m.pred_duration));
  h = fold(h, m.pred_size_related);
  h = fold(h, m.first_seen);
  return fold(h, m.profiling_probe);
}

/// Every function's mode, training metrics and breakpoint table (each
/// threshold and the memo of each interval), bit for bit, in catalog order.
uint64_t model_digest(const Profiler& profiler,
                      const sim::FunctionCatalog& catalog) {
  uint64_t h = 0x1b7a11ULL;
  for (const auto& func : catalog.all()) {
    const auto metrics = profiler.train_metrics(func->id());
    h = fold(h, metrics.has_value());
    if (metrics) {
      h = fold(h, bits(metrics->cpu_accuracy));
      h = fold(h, bits(metrics->mem_accuracy));
      h = fold(h, bits(metrics->duration_r2));
      h = fold(h, metrics->classified_size_related);
    }
    const BreakpointTable* table = profiler.ml_table(func->id());
    h = fold(h, table != nullptr);
    if (table == nullptr) continue;
    h = fold(h, table->thresholds().size());
    for (double t : table->thresholds()) {
      h = fold(h, bits(t));
      h = fold_memo(h, table->lookup(t));
    }
    h = fold_memo(h, table->lookup(std::numeric_limits<double>::infinity()));
  }
  return h;
}

/// A platform's profiler (exp::make_platform's seed and prewarm).
uint64_t prewarmed_digest(std::shared_ptr<const sim::FunctionCatalog> catalog) {
  ProfilerConfig cfg;
  cfg.seed = 1234;
  Profiler profiler(cfg, catalog);
  profiler.prewarm(*catalog, 1234, 30);
  return model_digest(profiler, *catalog);
}

// The pinned values are the serial trainer's, before the presorted CART and
// the training fan-out (DESIGN.md §5m). Both must leave every model as it
// was, whatever the number of training threads.
TEST(ProfilerPrewarm, ModelsMatchTheParentSebs) {
  EXPECT_EQ(prewarmed_digest(std::make_shared<const sim::FunctionCatalog>(
                workload::sebs_catalog())),
            0xb82d3f84cc899a90ULL);
}

TEST(ProfilerPrewarm, ModelsMatchTheParentSynthetic200) {
  // perfbench's stream catalog.
  gen::GenConfig g;
  g.functions = 200;
  g.seed = 20230616;
  EXPECT_EQ(prewarmed_digest(std::make_shared<const sim::FunctionCatalog>(
                gen::synthetic_catalog(g))),
            0xefe2150579efbd20ULL);
}

/// A catalog function whose pilot runs fail.
class FailingFunction final : public sim::FunctionModel {
 public:
  FailingFunction(sim::FunctionPtr base, std::string message)
      : base_(std::move(base)), message_(std::move(message)) {}
  sim::FunctionId id() const override { return base_->id(); }
  std::string name() const override { return base_->name(); }
  Resources user_allocation() const override {
    return base_->user_allocation();
  }
  bool size_related() const override { return base_->size_related(); }
  sim::DemandProfile evaluate(const sim::InputSpec&) const override {
    throw std::runtime_error(message_);
  }
  sim::InputSpec sample_input(util::Rng& rng) const override {
    return base_->sample_input(rng);
  }

 private:
  sim::FunctionPtr base_;
  std::string message_;
};

TEST(ProfilerPrewarm, WorkerExceptionReachesTheCaller) {
  // Two failing functions: whichever thread trains them, the caller gets
  // the first one's error in catalog order.
  std::vector<sim::FunctionPtr> functions = workload::sebs_catalog().all();
  functions[3] = std::make_shared<FailingFunction>(functions[3], "pilot 3");
  functions[7] = std::make_shared<FailingFunction>(functions[7], "pilot 7");
  const auto catalog =
      std::make_shared<const sim::FunctionCatalog>(std::move(functions));
  Profiler profiler(ProfilerConfig{}, catalog);
  try {
    profiler.prewarm(*catalog, 1234, 5);
    ADD_FAILURE() << "prewarm swallowed the pilot failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "pilot 3");
  }
}

}  // namespace
}  // namespace libra::core
