// §8.10 — component overhead microbenchmarks (google-benchmark). The paper
// reports that the profiler, scheduler and harvest pool overheads are
// negligible; here we measure the real C++ implementations: pool put/get
// under contention, demand-coverage computation at cluster scale, profiler
// prediction, and RF training (paper: offline training < 120 ms,
// prediction < 2 ms).
//
// After the google-benchmark suite, main() runs hard gates:
//   * the §5k const-ref pool-status read must not cost more than the
//     per-decision copy it replaced;
//   * the §5l flat hot-path layouts must beat in-bench replicas of the
//     pre-refactor containers they replaced: >= 2x on the pool entry walk
//     (std::map vs sorted flat vector) and the scheduler node scan
//     (per-node maps vs indexed vectors), >= 1.25x on the record store
//     (unordered_map vs DenseIdMap, bounded by per-record cache traffic);
//   * the §5m profiler serving path: a histogram-mode prediction over 4000
//     retained samples costs <= 2x one over 30;
//   * the §5d auditor sweep: after one warm-up sweep over backlog-burst's
//     shape, 1000 more full sweeps make zero heap allocations (counted by
//     the replaced global operator new below);
//   * the §5d incremental audit: an engine event that marks nothing, and
//     one that marks one node, each cost at most 2x as much at 1000 nodes
//     as at 10, and neither allocates after warm-up;
//   * the §5l capacity index: on a saturated cluster a sticky pick and a
//     coverage select cost at most 2x as much at 1000 nodes as at 10, and
//     neither allocates after warm-up;
//   * the §5l coverage candidate set: on an unsaturated cluster with the
//     same eight occupied pool views, an accelerable coverage select costs
//     at most 2x as much at 1000 nodes as at 10 and does not allocate after
//     warm-up;
//   * the §5h engine events: after warm-up, 10^5 schedule-and-step cycles
//     with the engine's capture shapes, a tenth of them also cancelling and
//     re-arming a pending event, make zero heap allocations;
//   * the §5h FIFO lanes: a monitor-tick-shaped timer that re-arms itself
//     through a lane costs at most 2x as much over 10,000 pending heap
//     events as over 10, and does not allocate after warm-up;
//   * the §5e adaptive harvest margin: after warm-up, 10^5
//     TrustManager::harvest_margin calls over full error rings make zero
//     heap allocations.
//
// With --json-out PATH (stripped before google-benchmark parses argv) the
// gate measurements are merged into a BenchArtifact JSON file —
// BENCH_hotpath.json in CI — which tools/bench_diff compares against the
// checked-in baseline to catch perf-trajectory regressions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "baselines/schedulers.h"
#include "core/coverage.h"
#include "core/harvest_pool.h"
#include "core/libra_policy.h"
#include "core/pool_status.h"
#include "core/predictor.h"
#include "core/profiler.h"
#include "core/trust_manager.h"
#include "exp/bench_artifact.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "ml/forest.h"
#include "obs/obs_config.h"
#include "obs/obs_session.h"
#include "sim/event_queue.h"
#include "sim/invocation.h"
#include "util/rng.h"
#include "util/dense_id_map.h"
#include "util/id_bitset.h"
#include "util/stats.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

using namespace libra;

namespace {
/// Global operator new calls made by this thread; the auditor-sweep
/// zero-allocation gate reads the main thread's count around its sweeps.
thread_local long t_heap_allocs = 0;
}  // namespace

// Counting replacements for the global allocation functions. The array and
// nothrow forms forward to these by default, so every heap allocation made
// through new is counted. Kept out of line so the compiler never pairs an
// inlined malloc with an inlined free at a new/delete call site.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

void BM_PoolPutGet(benchmark::State& state) {
  core::HarvestResourcePool pool;
  sim::SimTime now = 0;
  int64_t id = 0;
  for (auto _ : state) {
    now += 0.001;
    pool.put(id, {2, 256}, now + 10, now);
    auto grants = pool.get({1, 128}, id + 1000000, now);
    benchmark::DoNotOptimize(grants);
    pool.preempt_source(id, now);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolPutGet);

void BM_PoolPutGetEnabledObs(benchmark::State& state) {
  // Full tracing on (spans + counters + histograms) — the price of a live
  // capture, reported for scale; no gate on this row.
  core::HarvestResourcePool pool;
  obs::ObsConfig cfg;
  cfg.max_trace_events = 1 << 14;  // cap memory; drops counted, not stored
  obs::ObsSession obs(cfg);
  pool.set_event_listener(&obs);
  sim::SimTime now = 0;
  int64_t id = 0;
  for (auto _ : state) {
    now += 0.001;
    pool.put(id, {2, 256}, now + 10, now);
    auto grants = pool.get({1, 128}, id + 1000000, now);
    benchmark::DoNotOptimize(grants);
    pool.preempt_source(id, now);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolPutGetEnabledObs);

void BM_PoolGetContended(benchmark::State& state) {
  static core::HarvestResourcePool pool;
  if (state.thread_index() == 0) {
    for (int i = 0; i < 1024; ++i)
      pool.put(i, {1, 64}, 1e9, 0.0);
  }
  int64_t id = state.thread_index() * 1000000;
  for (auto _ : state) {
    auto grants = pool.get({0.01, 1}, id, 1.0);
    benchmark::DoNotOptimize(grants);
    pool.reharvest(id, 2.0);
    ++id;
  }
}
BENCHMARK(BM_PoolGetContended)->Threads(1)->Threads(4);

void BM_DemandCoverage50Nodes(benchmark::State& state) {
  // One coverage evaluation against a pool snapshot with `entries` tracked
  // collections — the per-node work inside a scheduling decision.
  core::PoolStatus status;
  for (int i = 0; i < state.range(0); ++i)
    status.entries.push_back(
        {{1.0 + i % 3, 64.0 * (i % 5)}, 10.0 + i * 0.37});
  for (auto _ : state) {
    auto cov = core::demand_coverage(status, 5.0, {4, 512}, 12.0);
    benchmark::DoNotOptimize(cov);
  }
}
BENCHMARK(BM_DemandCoverage50Nodes)->Arg(8)->Arg(64)->Arg(256);

/// A pool snapshot with `entries` tracked collections, shaped like a busy
/// node's status.
core::PoolStatus make_pool_status(int entries) {
  core::PoolStatus status;
  for (int i = 0; i < entries; ++i)
    status.entries.push_back({{1.0 + i % 3, 64.0 * (i % 5)}, 10.0 + i * 0.37});
  status.taken_at = 1.0;
  return status;
}

double consume_pool_status(const core::PoolStatus& status) {
  double acc = 0.0;
  for (const auto& e : status.entries) acc += e.volume.cpu + e.est_expiry;
  return acc;
}

void BM_PoolStatusCopyRead(benchmark::State& state) {
  // The pre-§5k scheduler hot path: every per-node decision step copied the
  // provider's PoolStatus (a vector allocation + element copy per node per
  // decision).
  const core::PoolStatus source = make_pool_status(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::PoolStatus status = source;
    benchmark::DoNotOptimize(consume_pool_status(status));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolStatusCopyRead)->Arg(8)->Arg(64)->Arg(256);

void BM_PoolStatusRefRead(benchmark::State& state) {
  // The current hot path: the const-ref PoolStatusProvider (or the control
  // plane's copy-on-gossip cache) hands the scheduler a reference; the only
  // copies left are the gossip refreshes.
  const core::PoolStatus source = make_pool_status(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const core::PoolStatus& status = source;
    benchmark::DoNotOptimize(consume_pool_status(status));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolStatusRefRead)->Arg(8)->Arg(64)->Arg(256);

void BM_EngineRunControllers(benchmark::State& state) {
  // End-to-end engine run at 1 vs 4 front-end controllers (pass-through
  // gossip): the controllers=1 row is the transparent path, whose cost must
  // match the pre-control-plane engine; the controllers=4 row prices the
  // cache feed + steal scans. No gate — digests are the correctness story
  // (golden replay), this row is the overhead story.
  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  const auto trace = workload::burst_trace(*catalog, 200, 5);
  for (auto _ : state) {
    auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog);
    auto cfg = exp::jetstream_config(/*nodes=*/8, /*num_shards=*/4);
    cfg.control.num_controllers = static_cast<int>(state.range(0));
    auto m = exp::run_experiment(cfg, policy, trace);
    benchmark::DoNotOptimize(m.sched_decisions);
  }
}
BENCHMARK(BM_EngineRunControllers)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// SeBS catalog functions the profiler serves in each mode: DH's demand
// follows its input size (ML mode), VP's does not (histogram mode).
constexpr sim::FunctionId kMlFunc = 4;
constexpr sim::FunctionId kHistogramFunc = 5;

/// A profiler trained on the SeBS catalog whose histograms each hold
/// `depth` prewarm observations, plus one invocation of `func` to predict.
struct PredictionFixture {
  std::shared_ptr<const sim::FunctionCatalog> catalog =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  core::Profiler profiler{core::ProfilerConfig{}, catalog};
  sim::Invocation inv;

  PredictionFixture(int depth, sim::FunctionId func) {
    // Seed 1234 classifies all ten SeBS functions correctly (ProfilerTest).
    profiler.prewarm(*catalog, 1234, depth);
    if (profiler.train_metrics(func)->classified_size_related !=
        (func == kMlFunc)) {
      std::fprintf(stderr, "profiler put function %d in the wrong mode\n",
                   static_cast<int>(func));
      std::exit(1);
    }
    util::Rng rng(3);
    inv = workload::make_invocation(*catalog, 0, func,
                                    catalog->at(func).sample_input(rng), 0.0);
  }
};

void BM_ProfilerPrediction(benchmark::State& state) {
  // Histogram mode at a histogram depth of range(0) observations: the
  // exact-sample percentiles must not grow with it.
  PredictionFixture fx(static_cast<int>(state.range(0)), kHistogramFunc);
  for (auto _ : state) {
    fx.profiler.predict(fx.inv);
    benchmark::DoNotOptimize(fx.inv.pred_demand);
  }
  // Paper: prediction overhead < 2 ms. Ours must be far below that.
}
BENCHMARK(BM_ProfilerPrediction)->Arg(30)->Arg(1000)->Arg(4000);

void BM_ProfilerPredictionMl(benchmark::State& state) {
  // ML mode: one binary search in the function's breakpoint table.
  PredictionFixture fx(30, kMlFunc);
  for (auto _ : state) {
    fx.profiler.predict(fx.inv);
    benchmark::DoNotOptimize(fx.inv.pred_demand);
  }
}
BENCHMARK(BM_ProfilerPredictionMl);

/// EngineApi over a frozen cluster, for driving the auditor's sweep and the
/// schedulers without an engine: nodes attached to a capacity index, their
/// placed lists and a vector of records indexed by id (alive = present and
/// not done, as in the engine).
class SweepApi final : public sim::EngineApi {
 public:
  sim::SimTime now() const override { return 50.0; }
  const std::vector<sim::Node>& nodes() const override { return nodes_; }
  sim::Node& node(sim::NodeId id) override {
    return nodes_[static_cast<size_t>(id)];
  }
  sim::Invocation& invocation(sim::InvocationId id) override {
    return invocations_[static_cast<size_t>(id)];
  }
  bool invocation_alive(sim::InvocationId id) const override {
    return id >= 0 && static_cast<size_t>(id) < invocations_.size() &&
           !invocations_[static_cast<size_t>(id)].done;
  }
  const sim::ExecutionModel& exec_model() const override { return exec_; }
  void update_effective(sim::InvocationId, const sim::Resources&) override {}
  void sync_accounting(sim::InvocationId) override {}
  sim::Resources observed_usage(sim::InvocationId) const override {
    return {};
  }
  sim::Resources observed_peak(sim::InvocationId) const override {
    return {};
  }
  const std::vector<sim::InvocationId>& placed_on(
      sim::NodeId node) const override {
    return placed_[static_cast<size_t>(node)];
  }
  const std::vector<sim::NodeId>& touched_nodes() const override {
    return touched_;
  }
  const std::vector<sim::InvocationId>& finalized_ids() const override {
    return finalized_;
  }
  sim::Resources max_shard_free(sim::ShardId shard) const override {
    return index_.max(shard);
  }

  /// Adds `count` nodes of backlog-burst's shape (24 cores, 24 GB, 4
  /// shards), each attached to the index.
  void add_nodes(int count) {
    index_ = sim::CapacityIndex(static_cast<size_t>(count), 4);
    for (int n = 0; n < count; ++n) {
      nodes_.emplace_back(n, sim::Resources{24.0, 24576.0}, 4);
      nodes_.back().set_capacity_index(&index_);
    }
    placed_.resize(static_cast<size_t>(count));
  }

  sim::CapacityIndex index_;
  std::vector<sim::Node> nodes_;
  std::vector<std::vector<sim::InvocationId>> placed_;
  std::vector<sim::Invocation> invocations_;
  /// What every event reports as touched (empty: an event that changed
  /// nothing, like a park).
  std::vector<sim::NodeId> touched_;
  /// Always empty: the gated events finalize nothing.
  std::vector<sim::InvocationId> finalized_;
  sim::ExecutionModel exec_;
};

constexpr int kSweepNodes = 10;
constexpr int kSweepPlacedPerNode = 9;
constexpr int kSweepBacklogPerNode = 40;

/// backlog-burst's shape mid-run, at `nodes` nodes (10 in backlog-burst):
/// every node (4 shards) runs 9 invocations out of a backlog of 40 per
/// node. Every node's pool holds 3 sources lending to 3 co-located
/// borrowers, and the trust layer stashes a raw prediction for the whole
/// backlog.
struct AuditorSweepFixture {
  SweepApi api;
  std::shared_ptr<core::LibraPolicy> policy;
  analysis::InvariantAuditor auditor;
  long event_id = 0;

  explicit AuditorSweepFixture(int nodes = kSweepNodes) {
    const int placed = nodes * kSweepPlacedPerNode;
    const int backlog = nodes * kSweepBacklogPerNode;
    core::LibraPolicyConfig cfg;
    cfg.trust_enabled = true;
    policy = std::make_shared<core::LibraPolicy>(
        cfg, std::make_shared<core::UserConfigPredictor>(),
        std::make_shared<baselines::HashScheduler>());
    auditor.attach_policy(policy.get());
    api.add_nodes(nodes);
    api.invocations_.resize(static_cast<size_t>(backlog));
    for (int i = 0; i < backlog; ++i) {
      sim::Invocation& inv = api.invocations_[static_cast<size_t>(i)];
      inv.id = i;
      inv.func = i % 8;
      inv.user_alloc = {1.0, 512.0};
      policy->predict(inv);
    }
    for (int i = 0; i < placed; ++i) {
      sim::Invocation& inv = api.invocations_[static_cast<size_t>(i)];
      inv.node = i % nodes;
      inv.shard = (i / nodes) % 4;
      if (!api.node(inv.node).try_reserve(inv.shard, inv.user_alloc)) {
        std::fprintf(stderr, "auditor sweep fixture: node %d is full\n",
                     static_cast<int>(inv.node));
        std::exit(1);
      }
      api.placed_[static_cast<size_t>(inv.node)].push_back(i);
    }
    for (int n = 0; n < nodes; ++n) {
      core::HarvestResourcePool& pool = policy->pool(n);
      const auto& ids = api.placed_[static_cast<size_t>(n)];
      for (size_t k = 0; k < 3; ++k)
        pool.put(ids[k], {0.5, 128.0}, 100.0 + static_cast<double>(k), 1.0);
      for (size_t k = 3; k < 6; ++k) pool.get({0.4, 96.0}, ids[k], 2.0);
    }
  }

  /// The full cluster sweep, called directly: through on_engine_event an
  /// event runs the incremental check (and a full sweep only as the
  /// backstop).
  void sweep() { auditor.sweep(api, "test"); }
  /// One sampled engine event marking api.touched_: the incremental check.
  /// A monitor tick stands in for any event that is neither a recycle nor
  /// the run's end.
  void event() {
    auditor.on_engine_event(
        api, sim::EngineEvent{sim::EngineEventKind::kMonitor, ++event_id});
  }
};

void BM_AuditorSweep(benchmark::State& state) {
  // The invariant auditor's full sweep (DESIGN.md §5d): the backstop every
  // 4096 engine events and the run_end check.
  AuditorSweepFixture fx;
  for (auto _ : state) fx.sweep();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditorSweep);

void BM_AuditorOneNodeCheck(benchmark::State& state) {
  // The incremental check of an event that touched one node: that node's
  // accounting and pool. backlog-burst runs one after each of ~120-240
  // engine events per invocation (most touch nothing).
  AuditorSweepFixture fx;
  fx.api.touched_ = {kSweepNodes / 2};
  for (auto _ : state) {
    fx.event();
    benchmark::DoNotOptimize(fx.auditor.stats().nodes_checked);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuditorOneNodeCheck);

void BM_OfflineTraining(benchmark::State& state) {
  // One full duplicator + train cycle (paper: < 120 ms offline).
  auto catalog = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  uint64_t seed = 1;
  for (auto _ : state) {
    core::ProfilerConfig cfg;
    cfg.seed = seed++;
    core::Profiler profiler(cfg, catalog);
    util::Rng rng(seed);
    auto inv = workload::make_invocation(
        *catalog, 0, 2, catalog->at(2).sample_input(rng), 0.0);
    profiler.predict(inv);  // first-seen triggers training
    benchmark::DoNotOptimize(inv.pred_duration);
  }
}
BENCHMARK(BM_OfflineTraining)->Unit(benchmark::kMillisecond);

/// Deterministic sample vector shaped like a latency distribution.
std::vector<double> quantile_samples(int n) {
  util::Rng rng(42);
  std::vector<double> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    xs.push_back(0.01 + 30.0 * rng.uniform(0.0, 1.0) * rng.uniform(0.0, 1.0));
  return xs;
}

void BM_CdfQuantilesPerCallSort(benchmark::State& state) {
  // The pre-refactor cdf_table cost: util::percentile copies and sorts the
  // sample vector once per quantile row (10 rows per table).
  const auto xs = quantile_samples(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double acc = 0;
    for (double q : exp::default_quantiles())
      acc += util::percentile(xs, q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(exp::default_quantiles().size()));
}
BENCHMARK(BM_CdfQuantilesPerCallSort)->Arg(4096)->Arg(65536);

void BM_CdfQuantilesEvaluator(benchmark::State& state) {
  // The current cdf_table cost: QuantileEvaluator sorts once (exact path,
  // <= 64Ki samples) or feeds a LogHistogram sketch once (above), then each
  // quantile row is an O(buckets) lookup.
  const auto xs = quantile_samples(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    exp::QuantileEvaluator eval(xs);
    double acc = 0;
    for (double q : exp::default_quantiles()) acc += eval.quantile(q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(exp::default_quantiles().size()));
}
BENCHMARK(BM_CdfQuantilesEvaluator)->Arg(4096)->Arg(65536)->Arg(262144);

/// Seconds per pool-status read over `reads` reads; `copy` selects the
/// pre-§5k copying read, else the const-ref read the scheduler uses now.
double time_status_reads(const core::PoolStatus& source, int reads,
                         bool copy) {
  const auto start = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (int i = 0; i < reads; ++i) {
    if (copy) {
      core::PoolStatus status = source;
      acc += consume_pool_status(status);
    } else {
      acc += consume_pool_status(source);
    }
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / reads;
}

/// The §5k hot-path contract: the const-ref PoolStatus read must never cost
/// more than the per-decision copy it replaced (5% headroom for timer
/// noise). Best-of-N with retries damp scheduler noise.
bool check_pool_status_ref_overhead(exp::BenchArtifact* artifact) {
  constexpr int kReads = 100000;
  constexpr int kReps = 5;
  constexpr double kHeadroom = 1.05;
  const core::PoolStatus source = make_pool_status(64);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    double best_copy = 1e300, best_ref = 1e300;
    for (int r = 0; r < kReps; ++r) {
      best_copy = std::min(best_copy, time_status_reads(source, kReads, true));
      best_ref = std::min(best_ref, time_status_reads(source, kReads, false));
    }
    std::printf(
        "pool-status read gate (attempt %d): copy %.1f ns/read, const-ref "
        "%.1f ns/read\n",
        attempt, best_copy * 1e9, best_ref * 1e9);
    if (best_ref <= best_copy * kHeadroom) {
      std::printf("pool-status ref-read gate: PASS (ref <= copy)\n");
      artifact->add("pool_status_copy_read_ns", best_copy * 1e9, "ns");
      artifact->add("pool_status_ref_read_ns", best_ref * 1e9, "ns");
      return true;
    }
  }
  std::printf("pool-status ref-read gate: FAIL (const-ref read slower than "
              "the copy it replaced)\n");
  return false;
}

// ---- §5l flat hot-path gates -------------------------------------------
//
// Both gates race an in-bench replica of the PRE-refactor container choice
// against the layout the hot path uses now, on the real access pattern.
// Measuring both sides in the same process makes the >= 2x requirement
// robust to runner speed; the absolute numbers additionally land in the
// BenchArtifact so bench_diff can track the trajectory across commits.

/// The engine's record-store access pattern: each invocation is inserted
/// once, looked up many times across its lifecycle events (admit, predict
/// enqueue + commit, schedule, pool step, container start, monitor ticks,
/// progress folds, completion, finalize), and the usage-integral refresh
/// periodically sweeps every live record (ClusterState::refresh_usage);
/// then the record is erased — a bounded live window sliding over a
/// monotone id space. A fig-12-sized burst keeps a few thousand records
/// live at once.
constexpr int64_t kStoreInFlight = 2048;
constexpr int kStoreLookupsPerCycle = 12;
constexpr int64_t kStoreSweepEvery = 128;

/// Seconds per lifecycle cycle on the pre-refactor store: the
/// node-per-entry std::unordered_map the engine kept before DenseIdMap.
double time_legacy_store_cycles(int cycles) {
  std::unordered_map<int64_t, sim::Invocation> store;
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t id = 0; id < cycles; ++id) {
    sim::Invocation inv;
    inv.id = id;
    store.emplace(id, std::move(inv));
    const int64_t lo = id >= kStoreInFlight ? id - kStoreInFlight + 1 : 0;
    const int64_t span = id - lo + 1;
    for (int k = 0; k < kStoreLookupsPerCycle; ++k) {
      // Lifecycle events cluster in time: most touches hit a recently
      // admitted record (admit, predict, schedule, start fire close
      // together); monitor folds occasionally revisit an old one.
      int64_t target = k % 4 != 3 ? id - (k * 5) % 64 : lo + (k * 37) % span;
      if (target < lo) target = id;
      auto it = store.find(target);
      if (it != store.end()) acc += it->second.arrival;
    }
    if (id % kStoreSweepEvery == 0)
      for (const auto& [key, rec] : store) acc += rec.progress;
    if (id >= kStoreInFlight) store.erase(id - kStoreInFlight);
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / cycles;
}

/// Same cycle on the flat store the engine uses now (util::DenseIdMap:
/// dense index, slot recycling, value-buffer reuse).
double time_flat_store_cycles(int cycles) {
  util::DenseIdMap<int64_t, sim::Invocation> store;
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t id = 0; id < cycles; ++id) {
    sim::Invocation inv;
    inv.id = id;
    store.insert(id, std::move(inv));
    const int64_t lo = id >= kStoreInFlight ? id - kStoreInFlight + 1 : 0;
    const int64_t span = id - lo + 1;
    for (int k = 0; k < kStoreLookupsPerCycle; ++k) {
      int64_t target = k % 4 != 3 ? id - (k * 5) % 64 : lo + (k * 37) % span;
      if (target < lo) target = id;
      const sim::Invocation* hit = store.find(target);
      if (hit) acc += hit->arrival;
    }
    if (id % kStoreSweepEvery == 0)
      store.for_each(
          [&acc](int64_t, const sim::Invocation& rec) { acc += rec.progress; });
    if (id >= kStoreInFlight) store.erase(id - kStoreInFlight);
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / cycles;
}

/// Regression guard: the DenseIdMap record store must be clearly faster
/// than the unordered_map layout it replaced on the engine's lookup-heavy
/// lifecycle pattern. The honest margin here is ~1.6-1.8x — the ~400-byte
/// Invocation spans several cache lines, so per-record memory traffic that
/// no layout removes bounds the win; the >= 2x acceptance rows are the
/// pool entry walk and the scheduler node scan below, whose records are
/// cache-line sized.
bool check_flat_record_store_speedup(exp::BenchArtifact* artifact) {
  constexpr int kCycles = 200000;
  constexpr int kReps = 5;
  constexpr double kMinSpeedup = 1.25;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    double best_legacy = 1e300, best_flat = 1e300;
    for (int r = 0; r < kReps; ++r) {
      best_legacy = std::min(best_legacy, time_legacy_store_cycles(kCycles));
      best_flat = std::min(best_flat, time_flat_store_cycles(kCycles));
    }
    const double speedup = best_legacy / best_flat;
    std::printf(
        "flat record-store gate (attempt %d): unordered_map %.1f ns/cycle, "
        "DenseIdMap %.1f ns/cycle, speedup %.2fx\n",
        attempt, best_legacy * 1e9, best_flat * 1e9, speedup);
    if (speedup >= kMinSpeedup) {
      std::printf("flat record-store gate: PASS (>= 1.25x)\n");
      artifact->add("record_store_legacy_map_ns", best_legacy * 1e9, "ns");
      artifact->add("record_store_flat_ns", best_flat * 1e9, "ns");
      artifact->add("record_store_speedup_x", speedup, "ratio", "higher");
      return true;
    }
  }
  std::printf("flat record-store gate: FAIL (DenseIdMap < 1.25x over the "
              "unordered_map it replaced)\n");
  return false;
}

// Scheduler node-scan replica: every scheduling decision scores all nodes,
// reading the per-node pool snapshot and cluster usage entry. Before §5l
// LibraPolicy kept both in per-node maps, and FP determinism forced ordered
// access — the decision loop walked node ids in ascending order and paid a
// map lookup per node. The flat layout indexes a vector with the node id.
struct BenchNodeSnapshot {
  sim::Resources idle;
  sim::Resources free_cap;
  double est_expiry = 0.0;
  int running = 0;
};

constexpr int kScanNodes = 50;

double time_node_scan_legacy(int decisions) {
  std::unordered_map<int, BenchNodeSnapshot> snapshots;
  std::unordered_map<int, sim::Resources> usage;
  for (int n = 0; n < kScanNodes; ++n) {
    snapshots.emplace(n, BenchNodeSnapshot{{1.0 + n % 3, 64.0 * (n % 5)},
                                           {24.0, 24576.0},
                                           10.0 + n * 0.37,
                                           n % 7});
    usage.emplace(n, sim::Resources{0.5 * (n % 4), 128.0 * (n % 3)});
  }
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int d = 0; d < decisions; ++d) {
    // Ascending node order (the determinism discipline), one lookup per map
    // per node — the pre-refactor decision scan.
    for (int n = 0; n < kScanNodes; ++n) {
      const BenchNodeSnapshot& snap = snapshots.at(n);
      const sim::Resources& used = usage.at(n);
      acc += snap.idle.cpu + snap.free_cap.cpu - used.cpu +
             snap.est_expiry * 1e-3 + snap.running;
    }
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / decisions;
}

double time_node_scan_flat(int decisions) {
  std::vector<BenchNodeSnapshot> snapshots;
  std::vector<sim::Resources> usage;
  for (int n = 0; n < kScanNodes; ++n) {
    snapshots.push_back(BenchNodeSnapshot{{1.0 + n % 3, 64.0 * (n % 5)},
                                          {24.0, 24576.0},
                                          10.0 + n * 0.37,
                                          n % 7});
    usage.push_back(sim::Resources{0.5 * (n % 4), 128.0 * (n % 3)});
  }
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int d = 0; d < decisions; ++d) {
    // Index order IS ascending node order: determinism for free.
    for (int n = 0; n < kScanNodes; ++n) {
      const BenchNodeSnapshot& snap = snapshots[static_cast<size_t>(n)];
      const sim::Resources& used = usage[static_cast<size_t>(n)];
      acc += snap.idle.cpu + snap.free_cap.cpu - used.cpu +
             snap.est_expiry * 1e-3 + snap.running;
    }
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / decisions;
}

/// ISSUE-10 acceptance gate (scheduler row): the node-indexed vector scan
/// must be >= 2x faster per decision than the per-node map lookups it
/// replaced.
bool check_flat_node_scan_speedup(exp::BenchArtifact* artifact) {
  constexpr int kDecisions = 100000;
  constexpr int kReps = 5;
  constexpr double kMinSpeedup = 2.0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    double best_legacy = 1e300, best_flat = 1e300;
    for (int r = 0; r < kReps; ++r) {
      best_legacy = std::min(best_legacy, time_node_scan_legacy(kDecisions));
      best_flat = std::min(best_flat, time_node_scan_flat(kDecisions));
    }
    const double speedup = best_legacy / best_flat;
    std::printf(
        "flat node-scan gate (attempt %d): per-node maps %.1f ns/decision, "
        "indexed vectors %.1f ns/decision (%d nodes), speedup %.2fx\n",
        attempt, best_legacy * 1e9, best_flat * 1e9, kScanNodes, speedup);
    if (speedup >= kMinSpeedup) {
      std::printf("flat node-scan gate: PASS (>= 2x)\n");
      artifact->add("sched_node_scan_legacy_map_ns", best_legacy * 1e9, "ns");
      artifact->add("sched_node_scan_flat_ns", best_flat * 1e9, "ns");
      artifact->add("sched_node_scan_speedup_x", speedup, "ratio", "higher");
      return true;
    }
  }
  std::printf("flat node-scan gate: FAIL (indexed scan < 2x over the "
              "per-node map lookups it replaced)\n");
  return false;
}

/// Pool-entry table replica: what the per-decision idle sweep reads. The
/// legacy side is the node-per-entry std::map HarvestResourcePool kept
/// before §5l; the flat side is the sorted vector it uses now.
struct BenchPoolEntry {
  int64_t source = 0;
  sim::Resources idle;
  double est_expiry = 0.0;
  sim::Resources harvested;
};

constexpr int kWalkEntries = 256;

double time_entry_walk_legacy(int walks) {
  std::map<int64_t, BenchPoolEntry> entries;
  for (int i = 0; i < kWalkEntries; ++i)
    entries.emplace(i, BenchPoolEntry{i, {1.0 + i % 3, 64.0 * (i % 5)},
                                      10.0 + i * 0.37, {0.5, 32.0}});
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < walks; ++w) {
    for (const auto& [source, entry] : entries)
      acc += entry.idle.cpu + entry.idle.mem + entry.est_expiry;
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / walks;
}

double time_entry_walk_flat(int walks) {
  std::vector<BenchPoolEntry> entries;
  for (int i = 0; i < kWalkEntries; ++i)
    entries.push_back(BenchPoolEntry{i, {1.0 + i % 3, 64.0 * (i % 5)},
                                     10.0 + i * 0.37, {0.5, 32.0}});
  double acc = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < walks; ++w) {
    for (const BenchPoolEntry& entry : entries)
      acc += entry.idle.cpu + entry.idle.mem + entry.est_expiry;
  }
  benchmark::DoNotOptimize(acc);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count() / walks;
}

/// ISSUE-10 acceptance gate: the flat pool-entry walk (the body of every
/// idle_total / snapshot / coverage sweep, once per scheduling decision)
/// must be >= 2x faster than the std::map walk it replaced.
bool check_flat_entry_walk_speedup(exp::BenchArtifact* artifact) {
  constexpr int kWalks = 50000;
  constexpr int kReps = 5;
  constexpr double kMinSpeedup = 2.0;
  for (int attempt = 1; attempt <= 3; ++attempt) {
    double best_legacy = 1e300, best_flat = 1e300;
    for (int r = 0; r < kReps; ++r) {
      best_legacy = std::min(best_legacy, time_entry_walk_legacy(kWalks));
      best_flat = std::min(best_flat, time_entry_walk_flat(kWalks));
    }
    const double speedup = best_legacy / best_flat;
    std::printf(
        "flat entry-walk gate (attempt %d): std::map %.1f ns/walk, flat "
        "vector %.1f ns/walk (%d entries), speedup %.2fx\n",
        attempt, best_legacy * 1e9, best_flat * 1e9, kWalkEntries, speedup);
    if (speedup >= kMinSpeedup) {
      std::printf("flat entry-walk gate: PASS (>= 2x)\n");
      artifact->add("pool_entry_walk_legacy_map_ns", best_legacy * 1e9, "ns");
      artifact->add("pool_entry_walk_flat_ns", best_flat * 1e9, "ns");
      artifact->add("pool_entry_walk_speedup_x", speedup, "ratio", "higher");
      return true;
    }
  }
  std::printf("flat entry-walk gate: FAIL (flat walk < 2x over the std::map "
              "walk it replaced)\n");
  return false;
}

/// Seconds per histogram-mode prediction on a fixture `reps` times over.
double best_prediction_time(PredictionFixture& fx, int predictions,
                            int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < predictions; ++i) {
      fx.profiler.predict(fx.inv);
      benchmark::DoNotOptimize(fx.inv.pred_demand);
    }
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(stop - start).count() / predictions);
  }
  return best;
}

/// §5m serving-path gate: a histogram-mode prediction over 4000 retained
/// samples (near the 4096 exact-sample cap) costs at most 2x one over 30.
/// Percentiles read the sorted samples in place; a path that sorts a copy
/// per prediction grows as n log n and fails this by orders of magnitude
/// (~1000x), so the prediction count is kept small enough that a failing
/// run still ends within minutes.
bool check_profiler_hist_depth_cost(exp::BenchArtifact* artifact) {
  constexpr int kPredictions = 20000;
  constexpr int kReps = 5;
  constexpr double kMaxRatio = 2.0;
  PredictionFixture shallow(30, kHistogramFunc);
  PredictionFixture deep(4000, kHistogramFunc);
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double best_shallow =
        best_prediction_time(shallow, kPredictions, kReps);
    const double best_deep = best_prediction_time(deep, kPredictions, kReps);
    const double ratio = best_deep / best_shallow;
    std::printf(
        "profiler histogram-depth gate (attempt %d): 30 samples %.1f "
        "ns/prediction, 4000 samples %.1f ns/prediction, ratio %.2fx\n",
        attempt, best_shallow * 1e9, best_deep * 1e9, ratio);
    if (ratio <= kMaxRatio) {
      std::printf("profiler histogram-depth gate: PASS (<= 2x)\n");
      artifact->add("profiler_hist_predict_30_ns", best_shallow * 1e9, "ns");
      artifact->add("profiler_hist_predict_4000_ns", best_deep * 1e9, "ns");
      artifact->add("profiler_hist_depth_cost_x", ratio, "ratio", "lower");
      return true;
    }
  }
  std::printf("profiler histogram-depth gate: FAIL (4000-sample prediction "
              "> 2x the 30-sample one)\n");
  return false;
}

/// §5d zero-allocation gate: one warm-up sweep grows the auditor's scratch
/// (one pool snapshot, one per-entry lent vector) to the largest pool; after
/// that, 1000 sweeps over backlog-burst's shape must not touch the heap. A
/// sweep that sorts a copy of the placed set, builds a hash map or copies a
/// pool fails this by thousands of allocations. The sweep's ns is exported
/// for same-machine comparison and is not gated (bench/baselines/README.md).
bool check_auditor_sweep_allocations(exp::BenchArtifact* artifact) {
  constexpr int kSweeps = 1000;
  constexpr int kReps = 5;
  AuditorSweepFixture fx;
  fx.sweep();
  const long before = t_heap_allocs;
  for (int i = 0; i < kSweeps; ++i) fx.sweep();
  const long allocs = t_heap_allocs - before;
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSweeps; ++i) fx.sweep();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(stop - start).count() / kSweeps);
  }
  std::printf(
      "auditor sweep gate: %ld heap allocations over %d warmed sweeps (%d "
      "nodes, %d placed, %d pools, %d stashed predictions), %.1f ns/sweep\n",
      allocs, kSweeps, kSweepNodes, kSweepNodes * kSweepPlacedPerNode,
      kSweepNodes, kSweepNodes * kSweepBacklogPerNode, best * 1e9);
  artifact->add("audit_sweep_ns", best * 1e9, "ns");
  if (allocs == 0) {
    std::printf("auditor sweep gate: PASS (zero allocations)\n");
    return true;
  }
  std::printf("auditor sweep gate: FAIL (a warmed sweep allocates)\n");
  return false;
}

/// §5d incremental-audit gate: a check's cost follows what the event
/// changed, not the cluster. backlog-burst's shape at 10 and at 1000 nodes;
/// per size, the best of 7 reps of 1000 engine events that mark nothing
/// (a park) and of 1000 that mark one node (always the middle one, so the
/// gate times the check, not the cache misses of a cluster-wide walk).
/// Both must cost at most 2x as much at 1000 nodes as at 10, and after a
/// warm-up neither may allocate. A rep that ran the backstop sweep (every
/// 4096 events) is timing the backstop, so it is discarded and re-run.
bool check_incremental_audit_cost(exp::BenchArtifact* artifact) {
  constexpr int kEvents = 1000;
  constexpr int kReps = 7;
  constexpr int kAttempts = 3;
  constexpr double kMaxRatio = 2.0;
  struct Cost {
    double idle_ns = 0.0;
    double one_node_ns = 0.0;
    long allocs = 0;
  };
  auto measure = [&](int nodes) {
    AuditorSweepFixture fx(nodes);
    const sim::NodeId mid = nodes / 2;
    fx.api.touched_ = {mid};
    for (int i = 0; i < kEvents; ++i) fx.event();  // grows the scratch
    auto best_ns = [&] {
      double best = 1e300;
      for (int timed = 0; timed < kReps;) {
        const long sweeps = fx.auditor.stats().sweeps;
        const auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < kEvents; ++i) fx.event();
        const auto stop = std::chrono::steady_clock::now();
        if (fx.auditor.stats().sweeps != sweeps) continue;
        best = std::min(
            best, std::chrono::duration<double>(stop - start).count() * 1e9 /
                      kEvents);
        ++timed;
      }
      return best;
    };
    Cost c;
    const long before = t_heap_allocs;
    c.one_node_ns = best_ns();
    fx.api.touched_.clear();
    c.idle_ns = best_ns();
    c.allocs = t_heap_allocs - before;
    return c;
  };
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const Cost small = measure(10);
    const Cost large = measure(1000);
    const double idle_x = large.idle_ns / small.idle_ns;
    const double one_x = large.one_node_ns / small.one_node_ns;
    std::printf(
        "incremental audit gate (attempt %d): event marking nothing %.1f ns "
        "at 10 nodes, %.1f ns at 1000 (%.2fx); one-node check %.1f ns at "
        "10, %.1f ns at 1000 (%.2fx); %ld + %ld heap allocations after "
        "warm-up\n",
        attempt, small.idle_ns, large.idle_ns, idle_x, small.one_node_ns,
        large.one_node_ns, one_x, small.allocs, large.allocs);
    if (small.allocs != 0 || large.allocs != 0) {
      std::printf("incremental audit gate: FAIL (a warmed check allocates)\n");
      return false;
    }
    if (idle_x <= kMaxRatio && one_x <= kMaxRatio) {
      std::printf("incremental audit gate: PASS (<= 2x from 10 to 1000 "
                  "nodes, zero allocations)\n");
      artifact->add("audit_idle_event_10_ns", small.idle_ns, "ns");
      artifact->add("audit_idle_event_1000_ns", large.idle_ns, "ns");
      artifact->add("audit_one_node_check_10_ns", small.one_node_ns, "ns");
      artifact->add("audit_one_node_check_1000_ns", large.one_node_ns, "ns");
      artifact->add("audit_idle_event_scale_x", idle_x, "ratio", "lower");
      artifact->add("audit_one_node_check_scale_x", one_x, "ratio", "lower");
      return true;
    }
  }
  std::printf("incremental audit gate: FAIL (a check at 1000 nodes costs > "
              "2x one at 10)\n");
  return false;
}

/// backlog-burst's cluster at `nodes` nodes with every shard slice reserved
/// in full, and eight functions asking for 1 core and 512 MB, each through a
/// sticky pick and a coverage select (accelerable: it predicts 2 cores).
struct FullClusterFixture {
  SweepApi api;
  core::StickyHashState sticky;
  core::CoverageScheduler coverage{nullptr, 0.9};
  std::vector<sim::Invocation> asks;

  explicit FullClusterFixture(int nodes) {
    api.add_nodes(nodes);
    for (sim::Node& node : api.nodes_)
      for (sim::ShardId s = 0; s < node.num_shards(); ++s)
        if (!node.try_reserve(s, node.shard_capacity())) {
          std::fprintf(stderr, "full-cluster fixture: node %d refused\n",
                       static_cast<int>(node.id()));
          std::exit(1);
        }
    for (int f = 0; f < 8; ++f) {
      sim::Invocation inv;
      inv.id = f;
      inv.func = f;
      inv.shard = f % 4;
      inv.user_alloc = {1.0, 512.0};
      inv.pred_demand = {2.0, 512.0};
      inv.pred_duration = 1.0;
      asks.push_back(inv);
    }
  }

  /// One round: every ask decided by both schedulers. Returns the number
  /// of nodes found (0 on a full cluster).
  int decide() {
    int found = 0;
    for (sim::Invocation& inv : asks) {
      found += sticky.pick(inv, api) != sim::kNoNode;
      found += coverage.select(inv, api) != sim::kNoNode;
    }
    return found;
  }
  size_t decisions_per_round() const { return 2 * asks.size(); }
};

/// §5l capacity-index gate: on a saturated cluster a sticky pick and a
/// coverage select answer "no node fits" from the index's root, so their
/// cost must not follow the node count. Per size, the best of 7 reps of 1000
/// rounds (16 decisions each); the 1000-node cost must be at most 2x the
/// 10-node cost, and after a warm-up round set (which grows the salt table)
/// no decision may allocate.
bool check_full_cluster_pick_cost(exp::BenchArtifact* artifact) {
  constexpr int kRounds = 1000;
  constexpr int kReps = 7;
  constexpr int kAttempts = 3;
  constexpr double kMaxRatio = 2.0;
  struct Cost {
    double ns = 0.0;
    long allocs = 0;
    long found = 0;
  };
  auto measure = [&](int nodes) {
    FullClusterFixture fx(nodes);
    Cost c;
    for (int i = 0; i < kRounds; ++i) c.found += fx.decide();
    const long before = t_heap_allocs;
    c.ns = 1e300;
    for (int r = 0; r < kReps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kRounds; ++i) c.found += fx.decide();
      const auto stop = std::chrono::steady_clock::now();
      c.ns = std::min(c.ns, std::chrono::duration<double>(stop - start).count() *
                                1e9 /
                                static_cast<double>(kRounds *
                                                    fx.decisions_per_round()));
    }
    c.allocs = t_heap_allocs - before;
    return c;
  };
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const Cost small = measure(10);
    const Cost large = measure(1000);
    const double scale_x = large.ns / small.ns;
    std::printf(
        "full-cluster pick gate (attempt %d): %.1f ns per decision at 10 "
        "nodes, %.1f ns at 1000 (%.2fx); %ld + %ld heap allocations after "
        "warm-up\n",
        attempt, small.ns, large.ns, scale_x, small.allocs, large.allocs);
    if (small.found != 0 || large.found != 0) {
      std::printf("full-cluster pick gate: FAIL (a pick found a node on the "
                  "full cluster)\n");
      return false;
    }
    if (small.allocs != 0 || large.allocs != 0) {
      std::printf("full-cluster pick gate: FAIL (a warmed pick allocates)\n");
      return false;
    }
    if (scale_x <= kMaxRatio) {
      std::printf("full-cluster pick gate: PASS (<= 2x from 10 to 1000 "
                  "nodes, zero allocations)\n");
      artifact->add("sched_full_pick_10_ns", small.ns, "ns");
      artifact->add("sched_full_pick_1000_ns", large.ns, "ns");
      artifact->add("sched_full_pick_scale_x", scale_x, "ratio", "lower");
      return true;
    }
  }
  std::printf("full-cluster pick gate: FAIL (a pick at 1000 nodes costs > 2x "
              "one at 10)\n");
  return false;
}

/// An unsaturated cluster of backlog-burst's node shape at `nodes` nodes
/// whose pool views are empty except the same eight (ids 0-3, 5-7 and 9),
/// each holding three live entries, and eight accelerable asks (1 core and
/// 512 MB, predicted 2 cores) decided by a coverage select.
struct CoveragePickFixture {
  struct Views final : core::PoolStatusProvider {
    std::vector<core::PoolStatus> statuses;
    util::IdBitset occupied;
    const core::PoolStatus& pool_status(sim::NodeId node) const override {
      return statuses[static_cast<size_t>(node)];
    }
    const util::IdBitset* occupied_views() const override { return &occupied; }
  };

  SweepApi api;
  Views views;
  core::CoverageScheduler coverage{&views, 0.9};
  std::vector<sim::Invocation> asks;

  explicit CoveragePickFixture(int nodes) {
    api.add_nodes(nodes);
    views.statuses.resize(static_cast<size_t>(nodes));
    views.occupied = util::IdBitset(static_cast<size_t>(nodes));
    for (const size_t n : {0, 1, 2, 3, 5, 6, 7, 9}) {
      core::PoolStatus& st = views.statuses[n];
      for (int k = 0; k < 3; ++k)
        st.entries.push_back({{0.5 + 0.25 * static_cast<double>(k), 256.0},
                              api.now() + 2.0 + static_cast<double>(n + k)});
      views.occupied.set(n, true);
    }
    for (int f = 0; f < 8; ++f) {
      sim::Invocation inv;
      inv.id = f;
      inv.func = f;
      inv.shard = f % 4;
      inv.user_alloc = {1.0, 512.0};
      inv.pred_demand = {2.0, 512.0};
      inv.pred_duration = 1.0;
      asks.push_back(inv);
    }
  }

  /// One round: every ask decided once. Returns the number of nodes found
  /// (every ask finds one).
  int decide() {
    int found = 0;
    for (sim::Invocation& inv : asks)
      found += coverage.select(inv, api) != sim::kNoNode;
    return found;
  }
};

/// §5l coverage candidate-set gate: on an unsaturated cluster an
/// accelerable coverage select scores the feasible nodes up to the first
/// empty view and then only the occupied views, so with the same eight
/// occupied views its cost must not follow the node count. Per size, the
/// best of 7 reps of 1000 rounds (8 decisions each); the 1000-node cost
/// must be at most 2x the 10-node cost, and after a warm-up round set no
/// decision may allocate.
bool check_coverage_pick_cost(exp::BenchArtifact* artifact) {
  constexpr int kRounds = 1000;
  constexpr int kReps = 7;
  constexpr int kAttempts = 3;
  constexpr double kMaxRatio = 2.0;
  struct Cost {
    double ns = 0.0;
    long allocs = 0;
    long missed = 0;
  };
  auto measure = [&](int nodes) {
    CoveragePickFixture fx(nodes);
    const int per_round = static_cast<int>(fx.asks.size());
    Cost c;
    for (int i = 0; i < kRounds; ++i) c.missed += per_round - fx.decide();
    const long before = t_heap_allocs;
    c.ns = 1e300;
    for (int r = 0; r < kReps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kRounds; ++i) c.missed += per_round - fx.decide();
      const auto stop = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(stop - start).count();
      c.ns = std::min(
          c.ns, seconds * 1e9 / static_cast<double>(kRounds * per_round));
    }
    c.allocs = t_heap_allocs - before;
    return c;
  };
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const Cost small = measure(10);
    const Cost large = measure(1000);
    const double scale_x = large.ns / small.ns;
    std::printf(
        "coverage pick gate (attempt %d): %.1f ns per decision at 10 nodes, "
        "%.1f ns at 1000 (%.2fx); %ld + %ld heap allocations after warm-up\n",
        attempt, small.ns, large.ns, scale_x, small.allocs, large.allocs);
    if (small.missed != 0 || large.missed != 0) {
      std::printf("coverage pick gate: FAIL (a pick found no node on the "
                  "unsaturated cluster)\n");
      return false;
    }
    if (small.allocs != 0 || large.allocs != 0) {
      std::printf("coverage pick gate: FAIL (a warmed pick allocates)\n");
      return false;
    }
    if (scale_x <= kMaxRatio) {
      std::printf("coverage pick gate: PASS (<= 2x from 10 to 1000 nodes, "
                  "zero allocations)\n");
      artifact->add("sched_coverage_pick_10_ns", small.ns, "ns");
      artifact->add("sched_coverage_pick_1000_ns", large.ns, "ns");
      artifact->add("sched_coverage_pick_scale_x", scale_x, "ratio", "lower");
      return true;
    }
  }
  std::printf("coverage pick gate: FAIL (a pick at 1000 nodes costs > 2x one "
              "at 10)\n");
  return false;
}

/// The engine's event shapes on one queue: kPending invocations, each with
/// one pending event that re-arms itself a short delay ahead when it fires.
/// Even ids capture `[this, id]` (an admission or profiler hand-off), odd
/// ids `[this, id, epoch]` (a placement's begin_execution); a cancelled
/// event's epoch is stale, so a dispatch that ignored a cancel is counted.
struct EngineEventFixture {
  static constexpr int64_t kPending = 64;
  sim::EventQueue queue;
  std::vector<sim::EventId> armed = std::vector<sim::EventId>(kPending);
  std::vector<uint64_t> epochs = std::vector<uint64_t>(kPending);
  uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  long cycles = 0;
  long stale_dispatches = 0;

  EngineEventFixture() {
    for (int64_t id = 0; id < kPending; ++id) arm(id);
  }
  // Queued callbacks hold `this`.
  EngineEventFixture(const EngineEventFixture&) = delete;
  EngineEventFixture& operator=(const EngineEventFixture&) = delete;

  /// 1 to 1000 ms, from a fixed LCG so every run sees the same sequence.
  double next_delay() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return 1e-3 * static_cast<double>((lcg >> 33) % 1000 + 1);
  }
  void arm(int64_t id) {
    const auto i = static_cast<size_t>(id);
    if (id % 2 == 0) {
      armed[i] = queue.schedule_after(next_delay(), [this, id] { arm(id); });
    } else {
      const uint64_t epoch = ++epochs[i];
      armed[i] = queue.schedule_after(next_delay(), [this, id, epoch] {
        if (epoch != epochs[static_cast<size_t>(id)]) ++stale_dispatches;
        arm(id);
      });
    }
  }
  /// One cycle: the next event is dispatched and schedules its successor;
  /// every tenth cycle also re-arms a pending event the way a completion
  /// is re-armed when an allocation changes: cancel, then schedule again.
  void cycle() {
    queue.step();
    if (++cycles % 10 == 0) {
      const int64_t id = (cycles / 10) % kPending;
      queue.cancel(armed[static_cast<size_t>(id)]);
      arm(id);
    }
  }
};

/// §5h engine-event gate: an event's capture lives inline in its queue slot
/// and fired slots are reused, so once the queue has grown, scheduling and
/// dispatching allocate nothing. 10^5 warm-up cycles, then 10^5 counted
/// cycles and 5 timed reps of 10^5 more must make zero heap allocations.
/// The best rep's ns per cycle is exported for same-machine comparison and
/// is not gated (bench/baselines/README.md).
bool check_engine_event_allocations(exp::BenchArtifact* artifact) {
  constexpr long kCycles = 100000;
  constexpr int kReps = 5;
  EngineEventFixture fx;
  for (long i = 0; i < kCycles; ++i) fx.cycle();
  const long before = t_heap_allocs;
  for (long i = 0; i < kCycles; ++i) fx.cycle();
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (long i = 0; i < kCycles; ++i) fx.cycle();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(stop - start).count() / kCycles);
  }
  const long allocs = t_heap_allocs - before;
  std::printf(
      "engine event gate: %ld heap allocations over %ld warmed cycles (%lld "
      "pending, 1 in 10 cancelled and re-armed), %.1f ns/cycle\n",
      allocs, kCycles * (kReps + 1),
      static_cast<long long>(EngineEventFixture::kPending), best * 1e9);
  artifact->add("engine_event_cycle_ns", best * 1e9, "ns");
  if (fx.stale_dispatches != 0) {
    std::printf("engine event gate: FAIL (%ld cancelled events dispatched)\n",
                fx.stale_dispatches);
    return false;
  }
  if (allocs == 0) {
    std::printf("engine event gate: PASS (zero allocations)\n");
    return true;
  }
  std::printf("engine event gate: FAIL (a warmed event cycle allocates)\n");
  return false;
}

/// Monitor-tick-shaped timers on the engine's queue: kTimers timers share
/// one FIFO lane and each re-arms itself kCadence after now() when it
/// fires, as InvocationLifecycle::monitor_tick does, over `heap_pending`
/// heap events parked far in the future. Every tenth cycle also cancels a
/// pending timer and re-arms it, the way a finished invocation disarms its
/// monitor and a new one arms another. More than one timer, or the front
/// slot alone would keep a heap-scheduled timer off the heap: with four,
/// scheduling them through schedule() instead reads 3.2x from 10 to 10,000
/// pending heap events.
struct LaneTimerFixture {
  static constexpr int64_t kTimers = 4;
  static constexpr double kCadence = 0.1;  // EngineConfig::monitor_interval
  sim::EventQueue queue;
  const sim::EventQueue::FifoLane lane = queue.add_fifo_lane();
  std::vector<sim::EventId> armed = std::vector<sim::EventId>(kTimers);
  long cycles = 0;
  long far_dispatches = 0;

  explicit LaneTimerFixture(int heap_pending) {
    for (int i = 0; i < heap_pending; ++i)
      queue.schedule(1e12 + i, [this] { ++far_dispatches; });
    for (int64_t id = 0; id < kTimers; ++id) arm(id);
  }
  // Queued callbacks hold `this`.
  LaneTimerFixture(const LaneTimerFixture&) = delete;
  LaneTimerFixture& operator=(const LaneTimerFixture&) = delete;

  void arm(int64_t id) {
    armed[static_cast<size_t>(id)] = queue.schedule_fifo(
        lane, queue.now() + kCadence, [this, id] { arm(id); });
  }
  /// One cycle: the lane's head is dispatched and re-arms itself.
  void cycle() {
    queue.step();
    if (++cycles % 10 == 0) {
      const int64_t id = (cycles / 10) % kTimers;
      queue.cancel(armed[static_cast<size_t>(id)]);
      arm(id);
    }
  }
};

/// §5h lane-timer gate: a fixed-cadence timer rides a FIFO lane, so its
/// schedule and dispatch never touch the heap and cannot grow with it. Per
/// size, 10^5 warm-up cycles, then the best of 7 reps of 10^5; the cycle
/// must cost at most 2x as much over 10,000 pending heap events as over
/// 10, no far-future event may fire, and after warm-up no cycle may
/// allocate.
bool check_lane_timer_cost(exp::BenchArtifact* artifact) {
  constexpr long kCycles = 100000;
  constexpr int kReps = 7;
  constexpr int kAttempts = 3;
  constexpr double kMaxRatio = 2.0;
  constexpr int kSmall = 10;
  constexpr int kLarge = 10000;
  struct Cost {
    double ns = 0.0;
    long allocs = 0;
    long far_dispatches = 0;
  };
  auto measure = [&](int heap_pending) {
    LaneTimerFixture fx(heap_pending);
    for (long i = 0; i < kCycles; ++i) fx.cycle();
    Cost c;
    const long before = t_heap_allocs;
    c.ns = 1e300;
    for (int r = 0; r < kReps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (long i = 0; i < kCycles; ++i) fx.cycle();
      const auto stop = std::chrono::steady_clock::now();
      c.ns = std::min(
          c.ns, std::chrono::duration<double>(stop - start).count() * 1e9 /
                    kCycles);
    }
    c.allocs = t_heap_allocs - before;
    c.far_dispatches = fx.far_dispatches;
    return c;
  };
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    const Cost small = measure(kSmall);
    const Cost large = measure(kLarge);
    const double scale_x = large.ns / small.ns;
    std::printf(
        "lane timer gate (attempt %d): %.1f ns per cycle over %d pending "
        "heap events, %.1f ns over %d (%.2fx); %ld + %ld heap allocations "
        "after warm-up\n",
        attempt, small.ns, kSmall, large.ns, kLarge, scale_x, small.allocs,
        large.allocs);
    if (small.far_dispatches != 0 || large.far_dispatches != 0) {
      std::printf("lane timer gate: FAIL (a far-future heap event fired)\n");
      return false;
    }
    if (small.allocs != 0 || large.allocs != 0) {
      std::printf("lane timer gate: FAIL (a warmed lane cycle allocates)\n");
      return false;
    }
    if (scale_x <= kMaxRatio) {
      std::printf("lane timer gate: PASS (<= 2x from 10 to 10,000 pending "
                  "heap events, zero allocations)\n");
      artifact->add("engine_lane_timer_10_ns", small.ns, "ns");
      artifact->add("engine_lane_timer_10000_ns", large.ns, "ns");
      artifact->add("engine_lane_timer_scale_x", scale_x, "ratio", "lower");
      return true;
    }
  }
  std::printf("lane timer gate: FAIL (a lane cycle over 10,000 pending heap "
              "events costs > 2x one over 10)\n");
  return false;
}

/// §5e zero-allocation gate: Libra+Trust reads the adaptive harvest margin
/// on every placement, and its p95 needs a copy of the function's error ring
/// to select in. One warm-up call grows the manager's scratch to a full
/// ring; after that, 10^5 calls over kFunctions functions with full rings
/// and 5 timed reps of 10^5 more must make zero heap allocations. The best
/// rep's ns per call is exported for same-machine comparison and is not
/// gated (bench/baselines/README.md).
bool check_trust_margin_allocations(exp::BenchArtifact* artifact) {
  constexpr long kCalls = 100000;
  constexpr int kReps = 5;
  constexpr int kFunctions = 64;
  constexpr int kWindow = core::TrustConfig::error_window;
  core::TrustManager trust;
  // Clean samples in [0, 0.48], below the 0.5 strike threshold, so every
  // function stays trusted and its ring fills.
  for (int f = 0; f < kFunctions; ++f)
    for (int i = 0; i < kWindow; ++i)
      trust.record_completion(f, 0.005 * ((f * 31 + i * 17) % 97), 1.0);
  double sink = trust.harvest_margin(0, 2.0);
  const long before = t_heap_allocs;
  for (long i = 0; i < kCalls; ++i)
    sink += trust.harvest_margin(static_cast<int>(i % kFunctions), 2.0);
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (long i = 0; i < kCalls; ++i)
      sink += trust.harvest_margin(static_cast<int>(i % kFunctions), 2.0);
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double>(stop - start).count() / kCalls);
  }
  const long allocs = t_heap_allocs - before;
  benchmark::DoNotOptimize(sink);
  std::printf(
      "trust margin gate: %ld heap allocations over %ld warmed calls (%d "
      "functions, %d-sample rings), %.1f ns/call\n",
      allocs, kCalls * (kReps + 1), kFunctions, kWindow, best * 1e9);
  artifact->add("trust_margin_ns", best * 1e9, "ns");
  if (allocs == 0) {
    std::printf("trust margin gate: PASS (zero allocations)\n");
    return true;
  }
  std::printf("trust margin gate: FAIL (a warmed margin read allocates)\n");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // --json-out is ours, not google-benchmark's: strip it from argv before
  // Initialize so ReportUnrecognizedArguments doesn't reject it.
  std::string json_out;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  exp::BenchArtifact artifact;
  const bool ref_ok = check_pool_status_ref_overhead(&artifact);
  const bool store_ok = check_flat_record_store_speedup(&artifact);
  const bool walk_ok = check_flat_entry_walk_speedup(&artifact);
  const bool scan_ok = check_flat_node_scan_speedup(&artifact);
  const bool depth_ok = check_profiler_hist_depth_cost(&artifact);
  const bool sweep_ok = check_auditor_sweep_allocations(&artifact);
  const bool audit_ok = check_incremental_audit_cost(&artifact);
  const bool pick_ok = check_full_cluster_pick_cost(&artifact);
  const bool coverage_ok = check_coverage_pick_cost(&artifact);
  const bool event_ok = check_engine_event_allocations(&artifact);
  const bool lane_ok = check_lane_timer_cost(&artifact);
  const bool margin_ok = check_trust_margin_allocations(&artifact);
  if (!json_out.empty()) {
    std::string error;
    if (!exp::merge_bench_artifact(json_out, artifact, &error)) {
      std::fprintf(stderr, "bench artifact export failed: %s\n",
                   error.c_str());
      return 1;
    }
    std::printf("merged %zu perf rows into %s\n", artifact.rows.size(),
                json_out.c_str());
  }
  return ref_ok && store_ok && walk_ok && scan_ok && depth_ok && sweep_ok &&
                 audit_ok && pick_ok && coverage_ok && event_ok && lane_ok &&
                 margin_ok
             ? 0
             : 1;
}
