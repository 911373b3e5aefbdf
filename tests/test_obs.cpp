// Observability subsystem (src/obs): histogram bucket math, trace recording,
// span ordering on a real engine run, exporter round-trips, and the contract
// the subsystem lives by: a session never perturbs the simulation.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/harvest_pool.h"
#include "core/policy_event.h"
#include "exp/cli.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "obs/obs_session.h"
#include "obs/trace_recorder.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundariesAreExact) {
  obs::LogHistogram h({/*min_positive=*/1.0, /*growth=*/2.0,
                       /*max_buckets=*/8});
  EXPECT_EQ(h.bucket_index(0.5), -1);   // underflow
  EXPECT_EQ(h.bucket_index(0.0), -1);
  EXPECT_EQ(h.bucket_index(-3.0), -1);
  EXPECT_EQ(h.bucket_index(1.0), 0);
  EXPECT_EQ(h.bucket_index(1.999), 0);
  EXPECT_EQ(h.bucket_index(2.0), 1);    // boundary goes up
  EXPECT_EQ(h.bucket_index(4.0), 2);
  EXPECT_EQ(h.bucket_index(1e9), 7);    // clamps into last bucket
  EXPECT_DOUBLE_EQ(h.bucket_floor(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_ceil(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(3), 8.0);
}

TEST(ObsHistogram, RecordAndPercentiles) {
  obs::LogHistogram h({/*min_positive=*/1.0, /*growth=*/2.0,
                       /*max_buckets=*/8});
  h.record(3.0);  // bucket 1: [2, 4)
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.sum(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  // Geometric midpoint of [2, 4): sqrt(8).
  EXPECT_NEAR(h.percentile(50), 2.8284, 1e-3);
  // The top percentile reports the true max, not a bucket estimate.
  EXPECT_DOUBLE_EQ(h.percentile(100), 3.0);

  h.record(0.0);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.count(), 2);
  // Rank 1 of 2 lands in the underflow bucket, reported as 0.
  EXPECT_DOUBLE_EQ(h.percentile(10), 0.0);
}

TEST(ObsHistogram, RejectsBadOptions) {
  EXPECT_THROW(obs::LogHistogram({0.0, 2.0, 8}), std::invalid_argument);
  EXPECT_THROW(obs::LogHistogram({1.0, 1.0, 8}), std::invalid_argument);
  EXPECT_THROW(obs::LogHistogram({1.0, 2.0, 0}), std::invalid_argument);
}

TEST(ObsMetrics, RegistryReturnsStableNamedRefs) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Counter& a = reg.counter("x");
  a.inc(3);
  EXPECT_EQ(reg.counter("x").value(), 3);
  EXPECT_EQ(&reg.counter("x"), &a);
  reg.histogram("h", {1.0, 2.0, 4}).record(1.5);
  EXPECT_EQ(reg.histogram("h").count(), 1);  // options ignored on re-lookup
  EXPECT_FALSE(reg.empty());
}

TEST(ObsTrace, RecorderHonorsCapAndCountsDrops) {
  obs::TraceRecorder rec(/*max_events=*/2);
  rec.instant(1.0, 0, 1, "a", "t");
  rec.instant(2.0, 0, 1, "b", "t");
  rec.instant(3.0, 0, 1, "c", "t");
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.events()[0].name, "a");
}

// ---------------------------------------------------------------------------
// Session behavior on a real engine run
// ---------------------------------------------------------------------------

std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat = std::make_shared<const sim::FunctionCatalog>(
      workload::sebs_catalog());
  return cat;
}

sim::RunMetrics run_with(obs::ObsSession* obs) {
  auto trace = workload::multi_trace(*catalog(), /*rpm=*/40, /*seed=*/5);
  auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog());
  return exp::run_experiment(exp::multi_node_config(), policy,
                             std::move(trace), obs);
}

TEST(ObsSession, SpansNestCorrectlyOnRealRun) {
  obs::ObsSession obs;
  const auto m = run_with(&obs);
  ASSERT_FALSE(obs.trace().empty());

  // Per invocation track: timestamps non-decreasing, B/E strictly balanced,
  // all spans closed at the end.
  std::map<long long, double> last_ts;
  std::map<long long, int> depth;
  size_t begins = 0, ends = 0;
  for (const auto& ev : obs.trace().events()) {
    if (ev.ph == obs::Phase::kMetadata) continue;
    auto it = last_ts.find(ev.tid);
    if (it != last_ts.end() && ev.pid == 0) {
      EXPECT_GE(ev.ts, it->second) << "tid " << ev.tid;
    }
    if (ev.pid == 0) last_ts[ev.tid] = ev.ts;
    if (ev.ph == obs::Phase::kBegin) {
      ++begins;
      ++depth[ev.tid];
      EXPECT_LE(depth[ev.tid], 1) << "overlapping spans on tid " << ev.tid;
    } else if (ev.ph == obs::Phase::kEnd) {
      ++ends;
      --depth[ev.tid];
      EXPECT_GE(depth[ev.tid], 0) << "unbalanced E on tid " << ev.tid;
    }
  }
  EXPECT_EQ(begins, ends);
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;

  // Lifecycle coverage: every completed invocation went through
  // queued -> startup -> running on its own track.
  long completed = 0;
  for (const auto& r : m.invocations) completed += r.completed ? 1 : 0;
  std::map<std::string, long> span_names;
  for (const auto& ev : obs.trace().events())
    if (ev.ph == obs::Phase::kBegin) ++span_names[ev.name];
  EXPECT_GE(span_names["queued"], completed);
  EXPECT_GE(span_names["startup"], completed);
  EXPECT_GE(span_names["running"], completed);

  // Counters line up with the run.
  const auto& counters = obs.metrics().counters();
  EXPECT_EQ(counters.at("engine.arrivals").value(),
            static_cast<long>(m.invocations.size()));
  EXPECT_EQ(counters.at("engine.completions").value(), completed);
  EXPECT_EQ(counters.at("pool.puts").value(), m.policy.harvest_puts);
  EXPECT_EQ(counters.at("policy.safeguard_triggers").value(),
            m.policy.safeguard_triggers);
  EXPECT_EQ(obs.metrics().histograms().at("invocation_response_latency_s")
                .count(),
            completed);
}

// Control-plane gauges appear only when the run exercised the control plane:
// a multi-controller run exports the ctrl.* family, the classic transparent
// single-controller run keeps its summary untouched.
TEST(ObsSessionCtrl, ControlPlaneGaugesGatedOnMultiController) {
  obs::ObsSession transparent;
  run_with(&transparent);
  EXPECT_EQ(transparent.metrics().gauges().count("ctrl.controllers"), 0u);

  obs::ObsSession obs;
  auto trace = workload::multi_trace(*catalog(), /*rpm=*/40, /*seed=*/5);
  auto policy = exp::make_platform(exp::PlatformKind::kLibra, catalog());
  auto cfg = exp::multi_node_config();
  cfg.control.num_controllers = 3;
  const auto m = exp::run_experiment(cfg, policy, std::move(trace), &obs);
  const auto& gauges = obs.metrics().gauges();
  ASSERT_EQ(gauges.count("ctrl.controllers"), 1u);
  EXPECT_EQ(gauges.at("ctrl.controllers").value(), 3.0);
  EXPECT_EQ(gauges.at("ctrl.decisions").value(),
            static_cast<double>(m.sched_decisions));
  ASSERT_EQ(gauges.count("ctrl.c2.admitted"), 1u);
  EXPECT_EQ(gauges.at("ctrl.c0.admitted").value() +
                gauges.at("ctrl.c1.admitted").value() +
                gauges.at("ctrl.c2.admitted").value(),
            static_cast<double>(m.invocations.size()));
}

TEST(ObsSession, DisabledSessionStillForwardsPoolEvents) {
  struct CountingListener : core::PoolEventListener {
    int calls = 0;
    void on_pool_event(const core::PoolEvent&) override { ++calls; }
  } inner;
  obs::ObsSession obs;
  obs.chain_pool_listener(&inner);
  core::HarvestResourcePool pool;
  pool.set_event_listener(&obs);
  pool.put(1, {1.0, 64.0}, 10.0, 0.0);
  pool.preempt_source(1, 1.0);
  // The chained listener sees both events, and the session records them too.
  EXPECT_EQ(inner.calls, 2);
  EXPECT_EQ(obs.metrics().counters().at("pool.puts").value(), 1);
  EXPECT_EQ(obs.metrics().counters().at("pool.preempt_source").value(), 1);
}

TEST(ObsSession, PolicyEventsBecomeCountersAndInstants) {
  obs::ObsSession obs;
  core::PolicyEvent ev;
  ev.kind = core::PolicyEventKind::kSafeguardTrigger;
  ev.now = 1.0;
  obs.on_policy_event(ev);
  ev.kind = core::PolicyEventKind::kTrustDemotion;
  ev.now = 2.0;
  obs.on_policy_event(ev);
  ev.kind = core::PolicyEventKind::kTrustPromotion;
  ev.now = 3.0;
  obs.on_policy_event(ev);
  const auto& counters = obs.metrics().counters();
  EXPECT_EQ(counters.at("policy.safeguard_triggers").value(), 1);
  EXPECT_EQ(counters.at("policy.trust_demotions").value(), 1);
  EXPECT_EQ(counters.at("policy.trust_promotions").value(), 1);
  ASSERT_EQ(obs.trace().size(), 3u);
  EXPECT_EQ(obs.trace().events()[0].name, "safeguard_trigger");
  EXPECT_EQ(obs.trace().events()[2].name, "trust_promotion");
}

// ---------------------------------------------------------------------------
// Determinism: the session never perturbs the run
// ---------------------------------------------------------------------------

TEST(ObsDeterminism, RunMetricsBitIdenticalWithObsOnOffOrAbsent) {
  const auto plain = run_with(nullptr);
  obs::ObsSession session;
  const auto observed = run_with(&session);

  ASSERT_EQ(plain.invocations.size(), observed.invocations.size());
  for (size_t i = 0; i < plain.invocations.size(); ++i) {
    const auto& a = plain.invocations[i];
    const auto& b = observed.invocations[i];
    EXPECT_EQ(a.id, b.id);
    // Bit-exact, not approximate: the session must not change a single
    // floating-point operation of the simulation.
    EXPECT_EQ(a.finish, b.finish);
    EXPECT_EQ(a.response_latency, b.response_latency);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.oom_count, b.oom_count);
  }
  EXPECT_EQ(plain.p99_latency(), observed.p99_latency());
  EXPECT_EQ(plain.workload_completion_time(),
            observed.workload_completion_time());
  EXPECT_EQ(plain.policy.safeguard_triggers,
            observed.policy.safeguard_triggers);
  EXPECT_EQ(plain.policy.harvest_puts, observed.policy.harvest_puts);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Minimal JSON syntax validator (objects, arrays, strings, numbers,
/// bools/null) — enough to prove the exporter writes well-formed JSON
/// without a third-party parser.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsExport, ChromeTraceJsonRoundTrips) {
  obs::ObsSession obs;
  run_with(&obs);
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  std::string error;
  ASSERT_TRUE(obs.export_chrome_trace(path, &error)) << error;

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonValidator(text).valid());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);

  // Parse back line-by-line (the writer emits one event per line) and
  // validate the trace-event schema: known ph, ts/pid/tid on every event,
  // non-negative microsecond timestamps.
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // header
  size_t events = 0, begins = 0, ends = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"name\"", 0) != 0) continue;
    ++events;
    const auto ph_at = line.find("\"ph\":\"");
    ASSERT_NE(ph_at, std::string::npos) << line;
    const char ph = line[ph_at + 6];
    EXPECT_TRUE(ph == 'B' || ph == 'E' || ph == 'i' || ph == 'C' ||
                ph == 'M')
        << line;
    begins += ph == 'B' ? 1 : 0;
    ends += ph == 'E' ? 1 : 0;
    const auto ts_at = line.find("\"ts\":");
    ASSERT_NE(ts_at, std::string::npos) << line;
    EXPECT_GE(std::stod(line.substr(ts_at + 5)), 0.0) << line;
    EXPECT_NE(line.find("\"pid\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
  }
  EXPECT_EQ(events, obs.trace().size());
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  std::remove(path.c_str());
}

TEST(ObsExport, CsvTimeSeriesParsesBack) {
  obs::ObsSession obs;
  run_with(&obs);
  const std::string path = ::testing::TempDir() + "obs_series.csv";
  std::string error;
  ASSERT_TRUE(obs.export_csv(path, &error)) << error;

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "series,t,value");
  std::map<std::string, std::pair<size_t, double>> per_series;  // count, last t
  while (std::getline(in, line)) {
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    ASSERT_NE(c1, std::string::npos) << line;
    ASSERT_NE(c2, std::string::npos) << line;
    const std::string name = line.substr(0, c1);
    const double t = std::stod(line.substr(c1 + 1, c2 - c1 - 1));
    const double v = std::stod(line.substr(c2 + 1));
    (void)v;
    auto& [count, last_t] = per_series[name];
    if (count > 0) {
      EXPECT_GE(t, last_t) << name;  // time-ordered per series
    }
    last_t = t;
    ++count;
  }
  ASSERT_FALSE(per_series.empty());
  // Every registry series made it out with every sample.
  for (const auto& [name, series] : obs.metrics().all_series())
    EXPECT_EQ(per_series[name].first, series.samples().size()) << name;
  std::remove(path.c_str());
}

TEST(ObsExport, NdjsonSinkStreamsInsteadOfBuffering) {
  obs::TraceRecorder rec(/*max_events=*/2);
  std::ostringstream sink;
  rec.set_sink(&sink);
  rec.instant(1.0, 0, 1, "a", "t");
  rec.begin(2.0, 0, 1, "b", "t", "{\"k\":1}");
  rec.end(3.0, 0, 1, "b", "t");
  rec.instant(4.0, 0, 1, "c", "t");  // over the in-memory cap: still streams
  EXPECT_EQ(rec.streamed(), 4u);
  EXPECT_EQ(rec.size(), 0u);     // nothing buffered
  EXPECT_EQ(rec.dropped(), 0u);  // cap does not apply to the stream

  std::istringstream lines(sink.str());
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    EXPECT_EQ(line.rfind("{\"name\"", 0), 0u) << line;
  }
  EXPECT_EQ(n, 4u);
  EXPECT_NE(sink.str().find("\"args\":{\"k\":1}"), std::string::npos);
}

TEST(ObsExport, NdjsonStreamRoundTripsAgainstBufferedTrace) {
  // Two identical runs: one buffered, one streamed to NDJSON with a tiny
  // in-memory cap. Each streamed line must byte-match trace_event_json of
  // the corresponding buffered event — stream and buffer are two sinks of
  // the same event sequence.
  obs::ObsSession buffered;
  run_with(&buffered);
  ASSERT_FALSE(buffered.trace().empty());

  const std::string path = ::testing::TempDir() + "obs_trace.ndjson";
  obs::ObsConfig cfg;
  cfg.max_trace_events = 8;  // would truncate a buffered run this size
  cfg.ndjson_path = path;
  obs::ObsSession streaming(cfg);
  run_with(&streaming);
  EXPECT_EQ(streaming.trace().size(), 0u);
  EXPECT_EQ(streaming.trace().dropped(), 0u);
  EXPECT_EQ(streaming.trace().streamed(), buffered.trace().size());
  EXPECT_GT(streaming.trace().streamed(), cfg.max_trace_events);

  std::istringstream lines(slurp(path));
  std::string line;
  size_t i = 0;
  for (; std::getline(lines, line); ++i) {
    ASSERT_LT(i, buffered.trace().size());
    EXPECT_EQ(line, obs::trace_event_json(buffered.trace().events()[i]))
        << "line " << i;
  }
  EXPECT_EQ(i, buffered.trace().size());
  std::remove(path.c_str());
}

TEST(ObsExport, SummaryMentionsKeyMetrics) {
  obs::ObsSession obs;
  run_with(&obs);
  std::ostringstream ss;
  obs.write_summary(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("engine.arrivals"), std::string::npos);
  EXPECT_NE(text.find("invocation_response_latency_s"), std::string::npos);
  EXPECT_NE(text.find("trace events:"), std::string::npos);
  // Per-shard decision-cost histograms and the derived balance line (§6.4).
  EXPECT_NE(text.find("sched_decision_cost.shard"), std::string::npos);
  EXPECT_NE(text.find("shard balance:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Shared bench CLI
// ---------------------------------------------------------------------------

TEST(ObsCli, ParsesSharedFlagsAndPassesUnknownsThrough) {
  const char* argv[] = {"bench",          "--smoke",
                        "--trace-out",    "/tmp/prefix",
                        "--obs-every-n=4", "--benchmark_filter=Pool"};
  auto opt = exp::parse_cli(6, const_cast<char**>(argv));
  EXPECT_TRUE(opt.smoke);
  EXPECT_TRUE(opt.obs_requested());
  EXPECT_EQ(opt.trace_out, "/tmp/prefix");
  EXPECT_EQ(opt.obs_every_n, 4);
  ASSERT_EQ(opt.extra.size(), 1u);
  EXPECT_EQ(opt.extra[0], "--benchmark_filter=Pool");

  const char* argv2[] = {"bench"};
  auto opt2 = exp::parse_cli(1, const_cast<char**>(argv2));
  EXPECT_FALSE(opt2.smoke);
  EXPECT_FALSE(opt2.obs_requested());

  // --trace-ndjson implies observability and lands in ObsConfig.
  const char* argv3[] = {"bench", "--trace-ndjson=/tmp/t.ndjson"};
  auto opt3 = exp::parse_cli(2, const_cast<char**>(argv3));
  EXPECT_TRUE(opt3.obs_requested());
  EXPECT_EQ(opt3.trace_ndjson, "/tmp/t.ndjson");
  const obs::ObsConfig cfg3 = exp::obs_config_from(opt3);
  EXPECT_EQ(cfg3.ndjson_path, "/tmp/t.ndjson");
}

TEST(ObsCli, RejectsABadSamplingRateByName) {
  // A bad --obs-every-n used to be ignored silently, leaving the default.
  for (const char* arg :
       {"--obs-every-n=0", "--obs-every-n=-3", "--obs-every-n=abc",
        "--obs-every-n=4x", "--obs-every-n=", "--obs-every-n=99999999999",
        "--obs-every-n"}) {
    const char* argv[] = {"bench", arg};
    try {
      exp::parse_cli(2, const_cast<char**>(argv));
      ADD_FAILURE() << arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--obs-every-n"),
                std::string::npos)
          << e.what();
    }
  }
  const char* ok[] = {"bench", "--obs-every-n", "2147483647"};
  EXPECT_EQ(exp::parse_cli(3, const_cast<char**>(ok)).obs_every_n,
            2147483647);
}

}  // namespace
}  // namespace libra
