// Recycling guard for the engine's run path: the golden scenarios pulled
// through the source overload of exp::run_experiment must reproduce the
// pinned replay digests BIT-FOR-BIT (the constants of
// tests/test_golden_replay.cpp, shared via tests/golden_cases.h), with and
// without invocation-record recycling. Also
// checks the sketch-backed sink mode (retain_records off): its aggregates
// must match the retained records, and live memory must track the in-flight
// count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/streaming_collector.h"
#include "gen/synthetic_source.h"
#include "util/stats.h"
#include "workload/materialized_source.h"

#include "golden_cases.h"
#include "golden_scenario.h"

namespace libra {
namespace {

uint64_t run_streamed(const std::string& name, bool recycle) {
  auto s = golden::build_scenario(name);
  s.cfg.recycle_records = recycle;
  workload::MaterializedSource source(std::move(s.trace));
  const auto metrics = exp::run_experiment(s.cfg, s.policy, source);
  return exp::run_metrics_digest(metrics);
}

class StreamingGolden : public ::testing::TestWithParam<golden::GoldenCase> {};

TEST_P(StreamingGolden, OneWorkerMatchesGoldenDigest) {
  const auto& c = GetParam();
  const std::string name(golden::case_name(c));
  EXPECT_EQ(exp::digest_hex(run_streamed(name, false)),
            exp::digest_hex(c.digest))
      << "the run path diverged from the pinned golden digest for " << name;
}

TEST_P(StreamingGolden, RecyclingPreservesGoldenDigest) {
  const auto& c = GetParam();
  const std::string name(golden::case_name(c));
  EXPECT_EQ(exp::digest_hex(run_streamed(name, true)),
            exp::digest_hex(c.digest))
      << "record recycling perturbed the replay for " << name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, StreamingGolden,
                         ::testing::ValuesIn(golden::kGoldenCases),
                         [](const auto& info) {
                           return std::string(golden::case_name(info.param));
                         });

// ---------------- sink mode (retain_records off) ----------------

TEST(Streaming, SinkAggregatesMatchRetainedRecords) {
  // Reference: retained records, no recycling.
  auto ref = golden::build_scenario("libra");
  const auto retained =
      exp::run_experiment(ref.cfg, ref.policy, std::move(ref.trace));

  // Sink mode: no record vector, records recycled, collector sketches.
  auto s = golden::build_scenario("libra");
  s.cfg.retain_records = false;
  s.cfg.recycle_records = true;
  exp::StreamingCollector collector;
  s.cfg.record_sink = &collector;
  workload::MaterializedSource source(std::move(s.trace));
  const auto streamed = exp::run_experiment(s.cfg, s.policy, source);

  EXPECT_TRUE(streamed.invocations.empty());
  ASSERT_EQ(collector.records(),
            static_cast<long>(retained.invocations.size()));
  EXPECT_EQ(streamed.finalized_records,
            static_cast<long>(retained.invocations.size()));

  long retained_completed = 0, retained_cold = 0;
  for (const auto& rec : retained.invocations) {
    if (rec.completed) ++retained_completed;
    if (rec.cold_start) ++retained_cold;
  }
  EXPECT_EQ(collector.completed(), retained_completed);
  EXPECT_EQ(streamed.finalized_completed, retained_completed);
  EXPECT_EQ(collector.cold_starts(), retained_cold);
  EXPECT_EQ(streamed.cold_starts, retained.cold_starts);
  EXPECT_EQ(streamed.oom_events, retained.oom_events);
  EXPECT_DOUBLE_EQ(collector.goodput(), retained.goodput());

  // Sketch quantiles are approximate (log buckets, growth 2): within one
  // bucket of the exact values.
  const auto exact = retained.response_latencies();
  exp::QuantileEvaluator sketch(collector.latency());
  EXPECT_TRUE(sketch.sketched());
  for (double p : {50.0, 90.0, 99.0}) {
    const double e = util::percentile(exact, p);
    const double s = sketch.quantile(p);
    EXPECT_GE(s, e / 2.0) << p;
    EXPECT_LE(s, e * 2.0) << p;
  }
}

TEST(Streaming, RecyclingKeepsLiveRecordsBelowTraceLength) {
  auto s = golden::build_scenario("default");
  const size_t n = s.trace.size();
  s.cfg.retain_records = false;
  s.cfg.recycle_records = true;
  workload::MaterializedSource source(std::move(s.trace));
  const auto m = exp::run_experiment(s.cfg, s.policy, source);
  EXPECT_EQ(m.finalized_records, static_cast<long>(n));
  EXPECT_GT(m.peak_live_records, 0);
  // The whole point of recycling: live records track in-flight count, not
  // stream length. multi_trace(120) spreads arrivals over a minute, so the
  // engine must never have held every record at once.
  EXPECT_LT(m.peak_live_records, static_cast<long>(n));
}

// ---------------- synthetic source end-to-end ----------------

TEST(Streaming, SyntheticSourceReplaysBitIdenticallyFromTheSameSeed) {
  gen::GenConfig gcfg;
  gcfg.functions = 200;
  gcfg.rpm = 3000.0;
  gcfg.duration = 60.0;
  gcfg.seed = 99;
  const auto run = [&] {
    auto catalog = std::make_shared<const sim::FunctionCatalog>(
        gen::synthetic_catalog(gcfg));
    gen::SyntheticSource source(gcfg, catalog);
    auto policy = exp::make_platform(exp::PlatformKind::kDefault, catalog);
    return exp::run_metrics_digest(
        exp::run_experiment(exp::jetstream_config(8, 4), policy, source));
  };
  EXPECT_EQ(run(), run()) << "same seed must replay bit-identically";
}

}  // namespace
}  // namespace libra
