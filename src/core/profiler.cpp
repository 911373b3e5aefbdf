#include "core/profiler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "ml/dataset.h"
#include "ml/metrics.h"
#include "util/log.h"

namespace libra::core {

using sim::FunctionId;
using sim::InputSpec;
using sim::Invocation;
using sim::Resources;

namespace {

/// Training threads per prewarm. Each adds ~0.3 MB of peak RSS, so this
/// stays a small constant rather than following the machine.
constexpr size_t kMaxTrainingWorkers = 4;

void check_percentile(double p, const char* what) {
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument(std::string("ProfilerConfig: ") + what + " = " +
                                std::to_string(p) + " outside [0, 100]");
}

}  // namespace

void ProfilerConfig::validate() const {
  if (duplicates < 2)
    throw std::invalid_argument(
        "ProfilerConfig: duplicates must be >= 2 to split train/test, got " +
        std::to_string(duplicates));
  if (scale_lo <= 0.0 || scale_hi <= 0.0 || scale_lo >= scale_hi)
    throw std::invalid_argument(
        "ProfilerConfig: rescale range must satisfy 0 < scale_lo < scale_hi, "
        "got [" +
        std::to_string(scale_lo) + ", " + std::to_string(scale_hi) + "]");
  if (train_fraction <= 0.0 || train_fraction >= 1.0)
    throw std::invalid_argument(
        "ProfilerConfig: train_fraction must be inside (0, 1), got " +
        std::to_string(train_fraction));
  if (profiling_window <= 0)
    throw std::invalid_argument(
        "ProfilerConfig: profiling_window must be positive, got " +
        std::to_string(profiling_window));
  check_percentile(peak_percentile, "peak_percentile");
  check_percentile(duration_percentile, "duration_percentile");
  if (accuracy_threshold < 0.0 || accuracy_threshold > 1.0 ||
      r2_threshold > 1.0)
    throw std::invalid_argument(
        "ProfilerConfig: relatedness thresholds outside their ranges");
  if (profiling_max.cpu <= 0.0 || profiling_max.mem <= 0.0)
    throw std::invalid_argument(
        "ProfilerConfig: profiling_max must be positive, got " +
        profiling_max.to_string());
  if (mem_class_mb <= 0.0)
    throw std::invalid_argument(
        "ProfilerConfig: mem_class_mb must be positive, got " +
        std::to_string(mem_class_mb));
  if (force_ml && force_histogram)
    throw std::invalid_argument(
        "ProfilerConfig: force_ml and force_histogram are mutually exclusive");
}

Profiler::Profiler(ProfilerConfig cfg,
                   std::shared_ptr<const sim::FunctionCatalog> catalog)
    : cfg_(cfg), catalog_(std::move(catalog)), rng_(cfg.seed) {
  if (!catalog_) throw std::invalid_argument("Profiler: null catalog");
  cfg_.validate();
}

void Profiler::train_function(FunctionId func, const InputSpec& first_input,
                              FuncState& state) const {
  const auto& model = catalog_->at(func);
  util::Rng rng = rng_.fork(static_cast<uint64_t>(func) * 977 + 5);

  // Workload duplicator (§4.2): rescale the first input's size log-uniformly
  // and pilot-run each duplicate with full allocation to label the dataset.
  ml::Dataset cpu_data, mem_data, dur_data;
  std::vector<double> pilot_durations;
  const double log_lo = std::log(cfg_.scale_lo);
  const double log_hi = std::log(cfg_.scale_hi);
  for (int i = 0; i < cfg_.duplicates; ++i) {
    InputSpec dup;
    dup.size = std::max(1e-9, first_input.size *
                                  std::exp(rng.uniform(log_lo, log_hi)));
    dup.content_seed = rng.next_u64();
    const auto truth = model.evaluate(dup);
    // With full allocation the observed peaks equal the true demand and the
    // execution time is work / demand.cpu.
    const double duration = truth.work / std::max(1e-9, truth.demand.cpu);
    pilot_durations.push_back(duration);
    const ml::FeatureRow row = {dup.size};
    cpu_data.add_classification(
        row, static_cast<int>(std::lround(truth.demand.cpu)));
    mem_data.add_classification(
        row, static_cast<int>(truth.demand.mem / cfg_.mem_class_mb));
    dur_data.add_regression(row, duration);
  }
  std::sort(pilot_durations.begin(), pilot_durations.end());
  state.pilot_median_duration = pilot_durations[pilot_durations.size() / 2];

  util::Rng split_rng = rng_.fork(static_cast<uint64_t>(func) * 31 + 7);
  const auto cpu_split = ml::split_dataset(cpu_data, cfg_.train_fraction,
                                           split_rng);
  const auto mem_split = ml::split_dataset(mem_data, cfg_.train_fraction,
                                           split_rng);
  const auto dur_split = ml::split_dataset(dur_data, cfg_.train_fraction,
                                           split_rng);

  ml::ForestOptions fopt = cfg_.forest;
  fopt.seed = rng.next_u64();
  // Regression on near-flat curves is noise-dominated; modest leaves keep
  // the forest from memorizing pilot noise.
  fopt.tree.min_samples_leaf = 3;
  fopt.tree.max_depth = 10;
  SizeModels models{ml::RandomForestClassifier(fopt),
                    ml::RandomForestClassifier(fopt),
                    ml::RandomForestRegressor(fopt)};
  models.cpu_clf.fit(cpu_split.train);
  models.mem_clf.fit(mem_split.train);
  models.dur_reg.fit(dur_split.train);

  state.metrics.cpu_accuracy = ml::accuracy(
      cpu_split.test.labels, models.cpu_clf.predict_all(cpu_split.test.x));
  state.metrics.mem_accuracy = ml::accuracy(
      mem_split.test.labels, models.mem_clf.predict_all(mem_split.test.x));
  state.metrics.duration_r2 = ml::r2_score(
      dur_split.test.targets, models.dur_reg.predict_all(dur_split.test.x));

  bool related = state.metrics.cpu_accuracy >= cfg_.accuracy_threshold &&
                 state.metrics.mem_accuracy >= cfg_.accuracy_threshold &&
                 state.metrics.duration_r2 >= cfg_.r2_threshold;
  if (cfg_.force_ml) related = true;
  if (cfg_.force_histogram) related = false;
  state.metrics.classified_size_related = related;
  state.mode = related ? Mode::kMl : Mode::kHistogram;
  if (related) state.ml_table = BreakpointTable(models, cfg_.mem_class_mb);
}

void Profiler::log_trained(FunctionId func, const FuncState& state) const {
  LIBRA_INFO() << "profiler trained func " << func << " ("
               << catalog_->at(func).name()
               << "): acc_cpu=" << state.metrics.cpu_accuracy
               << " acc_mem=" << state.metrics.mem_accuracy
               << " r2=" << state.metrics.duration_r2
               << (state.mode == Mode::kMl ? " -> ML" : " -> histogram");
}

sim::PredictionMemo SizeModels::predict(double size,
                                        double mem_class_mb) const {
  const ml::FeatureRow row = {size};
  const double cpu = std::max(1, cpu_clf.predict(row));
  // Memory classes map back to the bucket's upper edge: a conservative
  // choice that avoids harvesting into the predicted band.
  const double mem =
      (static_cast<double>(mem_clf.predict(row)) + 1.0) * mem_class_mb;
  sim::PredictionMemo memo;
  memo.pred_demand = {cpu, mem};
  memo.pred_duration = std::max(0.01, dur_reg.predict(row));
  memo.pred_size_related = true;
  return memo;
}

BreakpointTable::BreakpointTable(const SizeModels& models,
                                 double mem_class_mb) {
  models.cpu_clf.append_thresholds(thresholds_);
  models.mem_clf.append_thresholds(thresholds_);
  models.dur_reg.append_thresholds(thresholds_);
  std::sort(thresholds_.begin(), thresholds_.end());
  thresholds_.erase(std::unique(thresholds_.begin(), thresholds_.end()),
                    thresholds_.end());
  thresholds_.shrink_to_fit();
  memos_.reserve(thresholds_.size() + 1);
  // Every split tests `size <= t`. A size in (t[k-1], t[k]] answers each
  // test as t[k] does, so t[k] stands for its interval; above the last
  // threshold every test fails, as it does at +inf.
  for (const double t : thresholds_)
    memos_.push_back(models.predict(t, mem_class_mb));
  memos_.push_back(
      models.predict(std::numeric_limits<double>::infinity(), mem_class_mb));
}

const sim::PredictionMemo& BreakpointTable::lookup(double size) const {
  if (memos_.empty()) throw std::logic_error("BreakpointTable: empty table");
  // The first threshold with `size <= t`, using the trees' own test: NaN
  // fails it everywhere and lands in the last interval, as in the trees.
  const auto it =
      std::partition_point(thresholds_.begin(), thresholds_.end(),
                           [size](double t) { return !(size <= t); });
  return memos_[static_cast<size_t>(it - thresholds_.begin())];
}

sim::PredictionMemo Profiler::memo_histogram(const FuncState& state,
                                             const Invocation& inv) const {
  sim::PredictionMemo memo;
  memo.pred_size_related = false;
  if (state.observations < cfg_.profiling_window || state.hist_cpu.empty()) {
    // Profiling window: serve with maximum allocation to inspect real peaks
    // (§4.3.2). The probe allocation is granted from node free capacity by
    // the policy, not borrowed from the harvest pool.
    memo.profiling_probe = true;
    memo.pred_demand = Resources::max(inv.user_alloc, cfg_.profiling_max);
    memo.pred_duration = state.hist_dur.empty()
                             ? state.pilot_median_duration
                             : state.hist_dur.percentile(50.0);
    return memo;
  }
  const double cpu = std::ceil(state.hist_cpu.percentile(cfg_.peak_percentile));
  const double mem = state.hist_mem.percentile(cfg_.peak_percentile);
  memo.pred_demand = {std::max(1.0, cpu), std::max(64.0, mem)};
  memo.pred_duration =
      std::max(0.01, state.hist_dur.percentile(cfg_.duration_percentile));
  return memo;
}

namespace {

/// Writes a serving memo into the invocation — the exact field set the old
/// in-place predict paths wrote (profiling_probe is set, never cleared).
void apply_memo(const sim::PredictionMemo& memo, Invocation& inv) {
  inv.pred_demand = memo.pred_demand;
  inv.pred_duration = memo.pred_duration;
  inv.pred_size_related = memo.pred_size_related;
  inv.first_seen = memo.first_seen;
  if (memo.profiling_probe) inv.profiling_probe = true;
}

}  // namespace

void Profiler::predict(Invocation& inv) {
  auto& state = functions_[inv.func];
  if (state.mode == Mode::kUntrained) {
    // First-ever invocation: serve with the user configuration while the
    // duplicator builds the models offline (Fig. 3 step "first-seen").
    inv.first_seen = true;
    train_function(inv.func, inv.input, state);
    log_trained(inv.func, state);
    inv.pred_demand = inv.user_alloc;
    inv.pred_duration = state.pilot_median_duration;
    inv.pred_size_related = state.mode == Mode::kMl;
    return;
  }
  apply_memo(state.mode == Mode::kMl ? state.ml_table.lookup(inv.input.size)
                                     : memo_histogram(state, inv),
             inv);
}

void Profiler::predict_fallback(Invocation& inv) {
  auto it = functions_.find(inv.func);
  if (it == functions_.end() || it->second.mode == Mode::kUntrained) {
    // Never trained and the ML path is down: nothing to serve but the user
    // configuration. No probe either — probes are a profiling decision the
    // degraded path must not take.
    inv.first_seen = false;
    inv.pred_demand = inv.user_alloc;
    inv.pred_duration = 1.0;
    inv.pred_size_related = false;
    return;
  }
  apply_memo(memo_histogram(it->second, inv), inv);
}

void Profiler::observe(const Observation& obs) {
  auto it = functions_.find(obs.func);
  if (it == functions_.end()) return;
  auto& state = it->second;
  ++state.observations;
  state.hist_cpu.observe(obs.observed_peak.cpu);
  state.hist_mem.observe(obs.observed_peak.mem);
  state.hist_dur.observe(obs.exec_duration);
}

void Profiler::prewarm(const sim::FunctionCatalog& catalog, uint64_t seed,
                       int samples_per_function) {
  // Every first input is drawn here, serially in catalog order, and every
  // slot exists before a worker starts. A worker then writes only its own
  // slot, so the map never rehashes under it, and each function draws from
  // its own forks of rng_: the models do not depend on the thread count.
  struct Job {
    FunctionId func;
    InputSpec input;
    FuncState* state;
    std::exception_ptr error;
  };
  util::Rng rng(util::mix64(seed ^ 0x11b7a11ULL));
  std::vector<Job> jobs;
  for (const auto& func : catalog.all()) {
    auto& state = functions_[func->id()];
    if (state.mode == Mode::kUntrained)
      jobs.push_back({func->id(), func->sample_input(rng), &state, nullptr});
  }
  std::atomic<size_t> next{0};
  const auto drain = [this, &jobs, &next] {
    for (size_t i = next++; i < jobs.size(); i = next++) {
      try {
        train_function(jobs[i].func, jobs[i].input, *jobs[i].state);
      } catch (...) {
        jobs[i].error = std::current_exception();
      }
    }
  };
  const size_t workers =
      std::min({static_cast<size_t>(std::thread::hardware_concurrency()),
                jobs.size(), kMaxTrainingWorkers});
  {
    // The caller is one of the workers; the others join at scope exit. A
    // helper the system cannot start only leaves more work to the rest.
    // LIBRA_LINT_ALLOW(nondeterminism-source): set-up-time training fan-out, joined before prewarm returns; each function trains alone on its own rng forks, so the models do not depend on the thread count
    std::vector<std::jthread> helpers;
    for (size_t w = 1; w < workers; ++w) {
      try {
        helpers.emplace_back(drain);
      } catch (const std::system_error&) {
        break;
      }
    }
    drain();
  }
  for (const Job& job : jobs) {
    if (job.error) std::rethrow_exception(job.error);
    log_trained(job.func, *job.state);
  }
  // Seed the histogram models with historical full-allocation telemetry.
  DemandPredictor::prewarm(catalog, seed, samples_per_function);
}

std::optional<Profiler::TrainMetrics> Profiler::train_metrics(
    FunctionId func) const {
  auto it = functions_.find(func);
  if (it == functions_.end() || it->second.mode == Mode::kUntrained)
    return std::nullopt;
  return it->second.metrics;
}

const BreakpointTable* Profiler::ml_table(FunctionId func) const {
  auto it = functions_.find(func);
  return it != functions_.end() && it->second.mode == Mode::kMl
             ? &it->second.ml_table
             : nullptr;
}

void Profiler::record_mem_safeguard_strike(FunctionId func) {
  ++functions_[func].mem_strikes;
}

bool Profiler::mem_harvest_disabled(FunctionId func, int max_strikes) const {
  auto it = functions_.find(func);
  return it != functions_.end() && it->second.mem_strikes >= max_strikes;
}

}  // namespace libra::core
