// libra_perfbench — host-time benchmark of the simulator's experiment path.
//
//   libra_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload through exp::run_experiment on the Default, Freyr, Libra
// and Libra+Trust platforms, one thread, one process, and prints a JSON
// result as its last line. --trace 0 reports end-to-end metrics from
// untraced passes; --trace 1 reports per-layer metrics from passes whose
// public seams are wrapped in the timing decorators of seams.h. Every pass is
// checked (record conservation, sink coverage, digest repeatability, traced
// digest == untraced digest); any failure exits 1. README.md explains the
// workloads and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/invariant_auditor.h"
#include "core/libra_policy.h"
#include "exp/digest.h"
#include "exp/platforms.h"
#include "exp/runner.h"
#include "exp/streaming_collector.h"
#include "seams.h"
#include "util/stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Timed rounds per run, at least; more run while --seconds allows. Each
// round sets every platform up afresh (one set-up sample) and runs its passes.
constexpr int kMinRounds = 3;
constexpr int kMinTracedRounds = 2;
// Within a round, a cheap platform repeats its pass (each on a fresh policy)
// until it has spent about this much wall time: a Default pass lasts a tenth
// of a Libra pass, so it gets more samples, not a tenth of the time.
constexpr double kRoundPassSeconds = 0.25;
// An untraced pass is clocked in this many segments of equal record count.
// Every pass of a platform simulates exactly the same thing, so segment k
// holds the same work in each pass; see fastest_segments().
constexpr long kSegments = 64;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: libra_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const auto& n : Workload::names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

double seconds_since(int64_t start_ns) {
  return static_cast<double>(SpanRecorder::now_ns() - start_ns) * 1e-9;
}

/// Paces the measurement rounds: at least `min_rounds` run, and after that
/// a round starts only if it should end within the time budget, judged by
/// the longest round so far, so a run measures for about --seconds.
class RoundClock {
 public:
  RoundClock(double seconds, int min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds) {}

  bool next() {
    const int64_t now = SpanRecorder::now_ns();
    if (rounds_ > 0)
      longest_ = std::max(longest_, static_cast<double>(now - last_) * 1e-9);
    last_ = now;
    return rounds_++ < min_rounds_ ||
           static_cast<double>(now - start_) * 1e-9 + longest_ <= seconds_;
  }

 private:
  double seconds_;
  int min_rounds_;
  int rounds_ = 0;
  int64_t start_ = SpanRecorder::now_ns();
  int64_t last_ = start_;
  double longest_ = 0.0;
};

double fastest(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// The benchmark's own record sink: exact latencies for the p99, record
/// counts for the conservation checks, and the program's StreamingCollector
/// behind it so the sink layer times what a streaming user runs.
class BenchSink final : public sim::InvocationRecordSink {
 public:
  void on_record(const sim::InvocationRecord& rec) override {
    ++records;
    if (mark_every > 0 && records % mark_every == 0)
      marks.push_back(SpanRecorder::now_ns());
    if (rec.completed) {
      ++completed;
      latencies.push_back(rec.response_latency);
      finishes.push_back(rec.finish);
    }
    if (rec.lost) ++lost;
    collector.on_record(rec);
  }

  long records = 0;
  long completed = 0;
  long lost = 0;
  std::vector<double> latencies;  // completed records, finalize order
  std::vector<double> finishes;
  exp::StreamingCollector collector;
  long mark_every = 0;          // 0: no segment clock
  std::vector<int64_t> marks;   // host time at every mark_every-th record
};

/// One engine run of one platform over the workload's whole input.
struct Pass {
  double wall_s = 0.0;
  std::vector<int64_t> segments_ns;  // untraced passes with a segment clock
  long finalized = 0;
  long completed = 0;
  long lost = 0;
  uint64_t digest = 0;  // RunMetrics digest folded with the record sequence
  double p99_s = 0.0;
  double cpu_util = 0.0;
  double span_s = 0.0;  // first arrival to last completion, simulated
  long events = 0;
  sim::PolicyStats policy;
  long decisions = 0;
  long conflicts = 0;
  long stolen = 0;
  long sweeps = 0;       // traced passes only
  long pool_events = 0;  // traced passes only
};

double ns_per_inv(const Pass& p) {
  return p.wall_s * 1e9 / static_cast<double>(p.finalized);
}

class Bench {
 public:
  explicit Bench(const Options& opt) : opt_(opt), wl_(opt.workload, opt.seed) {}

  int run();

 private:
  struct PlatformRun {
    Platform platform;
    Pass reference;  // the untimed warm-up pass
    int reps = 1;              // passes per round
    long mark_every = 0;       // records per clocked segment
    std::vector<double> ns;    // untraced passes, ns per invocation
    std::vector<int64_t> segment_floor;  // per segment, fastest over passes
    // Traced mode.
    std::vector<double> traced_ns;
    double traced_wall = 0.0;
    long traced_inv = 0;
    int traced_passes = 0;
    SpanRecorder spans;
    Pass traced_sum;
  };

  std::shared_ptr<sim::Policy> make(const Platform& p) const {
    return exp::make_platform(p.kind, inputs_.catalog);
  }
  /// Builds the inputs and one policy per platform, timing both: one set-up
  /// sample.
  std::vector<std::shared_ptr<sim::Policy>> setup();
  Pass run_pass(const PlatformRun& pr, std::shared_ptr<sim::Policy> policy,
                SpanRecorder* rec);
  void check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  void warm_up();
  void add_untraced(PlatformRun& pr, const Pass& p);
  void measure_untraced();
  void measure_traced();
  void print_result();

  Options opt_;
  Workload wl_;
  Inputs inputs_;
  std::vector<PlatformRun> runs_;
  std::vector<double> setup_s_, catalog_s_, prewarm_s_;
  std::vector<std::string> errors_;
  long attempted_ = 0;
  long failed_ = 0;
};

std::vector<std::shared_ptr<sim::Policy>> Bench::setup() {
  const int64_t t0 = SpanRecorder::now_ns();
  inputs_ = wl_.build_inputs();
  const double catalog = seconds_since(t0);
  const int64_t t1 = SpanRecorder::now_ns();
  std::vector<std::shared_ptr<sim::Policy>> policies;
  for (const auto& pr : runs_) policies.push_back(make(pr.platform));
  const double prewarm = seconds_since(t1);
  catalog_s_.push_back(catalog);
  prewarm_s_.push_back(prewarm);
  setup_s_.push_back(catalog + prewarm);
  return policies;
}

Pass Bench::run_pass(const PlatformRun& pr, std::shared_ptr<sim::Policy> policy,
                     SpanRecorder* rec) {
  const std::string label = wl_.name() + "/" + pr.platform.key;
  BenchSink sink;
  auto source = wl_.make_source(inputs_);
  sim::EngineConfig cfg = wl_.config();
  sim::RunMetrics m;
  Pass out;
  if (rec == nullptr) {
    cfg.record_sink = &sink;
    sink.mark_every = pr.mark_every;
    if (pr.mark_every > 0) sink.marks.reserve(kSegments + 1);
    const int64_t t0 = SpanRecorder::now_ns();
    m = exp::run_experiment(cfg, policy, *source);
    const int64_t t1 = SpanRecorder::now_ns();
    out.wall_s = static_cast<double>(t1 - t0) * 1e-9;
    if (pr.mark_every > 0) {
      int64_t from = t0;
      for (int64_t mark : sink.marks) {
        out.segments_ns.push_back(mark - from);
        from = mark;
      }
      out.segments_ns.push_back(t1 - from);
    }
  } else {
    // The wrapper hides the concrete policy from run_experiment's own
    // auditor wiring, so install an auditor here exactly as it would: same
    // sampling rule, attached to the inner policy's pools.
    TimedSink timed_sink(sink, rec);
    TimedSource timed_source(*source, rec);
    const size_t size = source->size_hint();
    analysis::InvariantAuditorConfig audit_cfg;
    audit_cfg.every_n = size <= 4096 ? 1 : (size <= 1000000 ? 64 : 4096);
    analysis::InvariantAuditor auditor(audit_cfg);
    TimedAuditor timed_auditor(auditor, rec);
    auto* libra = dynamic_cast<core::LibraPolicy*>(policy.get());
    auditor.attach_policy(libra);
    if (libra != nullptr) libra->set_pool_listener(&timed_auditor);
    cfg.audit_hook = &timed_auditor;
    cfg.record_sink = &timed_sink;
    auto timed = make_timed_policy(policy, rec);
    const int64_t t0 = SpanRecorder::now_ns();
    m = exp::run_experiment(cfg, timed, timed_source);
    out.wall_s = seconds_since(t0);
    check(rec->idle(), label + ": unbalanced spans");
    out.sweeps = auditor.stats().sweeps;
    out.pool_events = auditor.stats().pool_events;
    out.events = auditor.stats().engine_events;
    if (libra != nullptr)
      check(out.pool_events > 0,
            label + ": the auditor saw no pool events on a harvesting platform");
  }

  out.finalized = m.finalized_records;
  out.completed = m.finalized_completed;
  out.lost = m.lost_invocations;
  out.policy = m.policy;
  out.decisions = m.sched_decisions;
  out.span_s = m.makespan_end - m.first_arrival;
  out.conflicts = m.control.total_conflicts();
  out.stolen = m.control.total_stolen;
  if (!sink.latencies.empty()) {
    out.p99_s = libra::util::percentile(sink.latencies, 99.0);
    // Utilization up to the instant 99% of the invocations had finished: a
    // handful of long stragglers running on an otherwise idle cluster would
    // otherwise decide the averaging window (RunMetrics::avg_cpu_utilization
    // runs to the last completion), and with it the metric.
    const double until = libra::util::percentile(sink.finishes, 99.0);
    if (until > m.first_arrival && m.total_capacity.cpu > 0.0)
      out.cpu_util = m.cpu_used.average(m.first_arrival, until) /
                     m.total_capacity.cpu;
  }

  // The streaming digest covers series, counters and policy stats but not
  // the records; fold in the sink's record sequence.
  libra::exp::Fnv64 h;
  h.u64(exp::run_metrics_digest(m));
  h.i64(sink.records);
  h.i64(sink.lost);
  for (double v : sink.latencies) h.f64(v);
  out.digest = h.value();

  const long emitted = Workload::emitted(*source, inputs_);
  check(!source->peek_arrival().has_value(), label + ": source not drained");
  check(m.finalized_records == emitted,
        label + ": finalized " + std::to_string(m.finalized_records) +
            " of " + std::to_string(emitted) + " emitted invocations");
  check(m.finalized_records ==
            m.finalized_completed + m.finalized_incomplete + m.lost_invocations,
        label + ": finalized != completed + incomplete + lost");
  check(m.incomplete == 0 && m.finalized_incomplete == 0,
        label + ": incomplete invocations");
  check(sink.records == m.finalized_records,
        label + ": sink saw " + std::to_string(sink.records) + " of " +
            std::to_string(m.finalized_records) + " finalized records");
  check(sink.collector.records() == sink.records &&
            sink.completed == m.finalized_completed && sink.lost == m.lost_invocations,
        label + ": sink counts disagree with RunMetrics");
  attempted_ += m.finalized_records;
  failed_ += m.lost_invocations;
  return out;
}

void Bench::warm_up() {
  // Untimed: first-touch page faults, allocator growth and cold caches land
  // here, not in a timed pass. The warm-up pass is also every platform's
  // reference: its digest must repeat on every later pass, and its
  // simulated outcomes are reported.
  auto policies = setup();
  for (size_t i = 0; i < runs_.size(); ++i) {
    PlatformRun& pr = runs_[i];
    pr.reference = run_pass(pr, std::move(policies[i]), nullptr);
    pr.reps = std::max(
        1, static_cast<int>(kRoundPassSeconds / pr.reference.wall_s + 0.5));
    pr.mark_every = (pr.reference.finalized + kSegments - 1) / kSegments;
    const Pass& r = pr.reference;
    std::cout << "  " << std::left << std::setw(12) << pr.platform.key
              << std::right << " attempted " << r.finalized << ", completed "
              << r.completed << ", lost " << r.lost << ", p99 " << r.p99_s
              << " s, cpu util " << r.cpu_util << ", decisions "
              << r.decisions << ", conflicts " << r.conflicts
              << ", simulated span " << r.span_s << " s, digest "
              << exp::digest_hex(r.digest) << ", warm-up pass " << r.wall_s
              << " s\n";
  }
}

void Bench::add_untraced(PlatformRun& pr, const Pass& p) {
  const std::string label = wl_.name() + "/" + pr.platform.key;
  check(p.digest == pr.reference.digest,
        label + ": digest differs from the warm-up pass");
  pr.ns.push_back(ns_per_inv(p));
  if (pr.segment_floor.empty()) {
    pr.segment_floor = p.segments_ns;
  } else if (pr.segment_floor.size() != p.segments_ns.size()) {
    check(false, label + ": segment count differs between passes");
  } else {
    for (size_t k = 0; k < p.segments_ns.size(); ++k)
      pr.segment_floor[k] = std::min(pr.segment_floor[k], p.segments_ns[k]);
  }
}

/// The per-invocation estimator: the sum over segments of each segment's
/// fastest time across the run's passes, per invocation. A shared host
/// slows down in episodes of a few seconds from load outside the benchmark,
/// and that only ever adds time. The floor combines the undisturbed
/// segments of different passes, so it reads the pass as an undisturbed
/// host runs it more often than any single pass does. README.md has the
/// numbers.
double fastest_segments(const std::vector<int64_t>& floor, long finalized) {
  int64_t total = 0;
  for (int64_t ns : floor) total += ns;
  return static_cast<double>(total) / static_cast<double>(finalized);
}

void Bench::measure_untraced() {
  for (RoundClock clock(opt_.seconds, kMinRounds); clock.next();) {
    auto policies = setup();
    for (size_t i = 0; i < runs_.size(); ++i) {
      PlatformRun& pr = runs_[i];
      for (int rep = 0; rep < pr.reps; ++rep) {
        auto policy = rep == 0 ? std::move(policies[i]) : make(pr.platform);
        add_untraced(pr, run_pass(pr, std::move(policy), nullptr));
      }
    }
  }
}

void Bench::measure_traced() {
  for (RoundClock clock(opt_.seconds, kMinTracedRounds); clock.next();) {
    auto policies = setup();
    for (size_t i = 0; i < runs_.size(); ++i) {
      PlatformRun& pr = runs_[i];
      const Pass plain = run_pass(pr, std::move(policies[i]), nullptr);
      const Pass traced = run_pass(pr, make(pr.platform), &pr.spans);
      const std::string label = wl_.name() + "/" + pr.platform.key;
      add_untraced(pr, plain);
      check(traced.digest == plain.digest,
            label + ": traced digest " + exp::digest_hex(traced.digest) +
                " != untraced " + exp::digest_hex(plain.digest));
      pr.traced_ns.push_back(ns_per_inv(traced));
      pr.traced_wall += traced.wall_s;
      pr.traced_inv += traced.finalized;
      ++pr.traced_passes;
      Pass& sum = pr.traced_sum;
      sum.events += traced.events;
      sum.sweeps += traced.sweeps;
      sum.pool_events += traced.pool_events;
      sum.conflicts += traced.conflicts;
      sum.stolen += traced.stolen;
      sum.policy.harvest_puts += traced.policy.harvest_puts;
      sum.policy.borrow_gets += traced.policy.borrow_gets;
      sum.policy.pool_revocations += traced.policy.pool_revocations;
      sum.policy.reharvests += traced.policy.reharvests;
    }
  }
}

class MetricWriter {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::ostringstream v;
    v << std::setprecision(12) << value;
    if (!entries_.empty()) entries_ += ", ";
    entries_ += "\"" + name + "\": {\"value\": " + v.str() + ", \"unit\": \"" +
                unit + "\"}";
    std::cout << "  " << std::left << std::setw(40) << name << std::right
              << std::setw(16) << v.str() << " " << unit << "\n";
  }
  const std::string& json() const { return entries_; }

 private:
  std::string entries_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Bench::print_result() {
  MetricWriter w;
  std::cout << "\nmetrics (" << (opt_.trace ? "traced" : "untraced")
            << " passes):\n";
  if (!opt_.trace) {
    long completed = 0, finalized = 0;
    for (const auto& pr : runs_) {
      w.add("ns_per_inv." + std::string(pr.platform.key),
            fastest_segments(pr.segment_floor, pr.reference.finalized), "ns");
      completed += pr.reference.completed;
      finalized += pr.reference.finalized;
    }
    w.add("setup_s", median(setup_s_), "s");
    w.add("peak_rss_mb", peak_rss_mb(), "MB");
    for (const auto& pr : runs_) {
      const std::string key = pr.platform.key;
      if (key != "default" && key != "libra") continue;
      w.add("sim_p99_s." + key, pr.reference.p99_s, "s");
      w.add("sim_cpu_util." + key, pr.reference.cpu_util, "fraction");
    }
    w.add("goodput", ratio(static_cast<double>(completed),
                           static_cast<double>(finalized)),
          "fraction");
  } else {
    w.add("setup.catalog_s", median(catalog_s_), "s");
    w.add("setup.prewarm_s", median(prewarm_s_), "s");
    for (const auto& pr : runs_) {
      const std::string k = "." + std::string(pr.platform.key);
      const auto& t = pr.spans.totals();
      const SeamCounts& c = pr.spans.counts();
      const double wall_ns = pr.traced_wall * 1e9;
      const double inv = static_cast<double>(pr.traced_inv);
      const double passes = static_cast<double>(pr.traced_passes);
      auto self = [&](Layer l) { return static_cast<double>(t[l].self_ns); };
      auto per_call = [&](Layer l) {
        return ratio(self(l), static_cast<double>(t[l].calls));
      };
      double covered = 0.0;
      for (int l = 0; l < kLayerCount; ++l) covered += self(static_cast<Layer>(l));
      const Pass& s = pr.traced_sum;

      w.add("core.predict.ns_per_call" + k, per_call(kPredict), "ns");
      w.add("core.predict.share" + k, ratio(self(kPredict), wall_ns), "fraction");
      w.add("core.select.ns_per_call" + k, per_call(kSelect), "ns");
      w.add("core.select.calls_per_inv" + k,
            ratio(static_cast<double>(c.decisions), inv), "1/inv");
      w.add("core.select.placed_ratio" + k,
            ratio(static_cast<double>(c.placements),
                  static_cast<double>(c.decisions)),
            "ratio");
      w.add("core.pool.plan_ns_per_call" + k, per_call(kPlan), "ns");
      w.add("core.pool.complete_ns_per_call" + k, per_call(kComplete), "ns");
      w.add("core.pool.puts_per_inv" + k,
            ratio(static_cast<double>(s.policy.harvest_puts), inv), "1/inv");
      w.add("core.pool.gets_per_inv" + k,
            ratio(static_cast<double>(s.policy.borrow_gets), inv), "1/inv");
      w.add("core.pool.revocations_per_inv" + k,
            ratio(static_cast<double>(s.policy.pool_revocations), inv), "1/inv");
      w.add("core.pool.reharvests_per_inv" + k,
            ratio(static_cast<double>(s.policy.reharvests), inv), "1/inv");
      w.add("core.safeguard.ns_per_inv" + k, ratio(self(kSafeguard), inv), "ns");
      w.add("core.safeguard.ticks_per_inv" + k,
            ratio(static_cast<double>(c.monitor_ticks), inv), "1/inv");
      w.add("core.ping.ns_per_call" + k, per_call(kPing), "ns");
      w.add("core.ping.share" + k, ratio(self(kPing), wall_ns), "fraction");
      w.add("core.fault.ns_per_inv" + k, ratio(self(kFault), inv), "ns");
      w.add("core.finalize.ns_per_inv" + k, ratio(self(kFinalize), inv), "ns");
      w.add("ctrl.pool_status.calls" + k,
            ratio(static_cast<double>(t[kPoolStatus].calls), passes), "count");
      w.add("ctrl.pool_status.ns" + k, per_call(kPoolStatus), "ns");
      w.add("ctrl.conflicts_per_inv" + k,
            ratio(static_cast<double>(s.conflicts), inv), "1/inv");
      w.add("ctrl.steals" + k, ratio(static_cast<double>(s.stolen), passes),
            "count");
      w.add("analysis.audit.share" + k, ratio(self(kAudit), wall_ns), "fraction");
      w.add("analysis.audit.ns_per_inv" + k, ratio(self(kAudit), inv), "ns");
      w.add("analysis.audit.sweeps" + k,
            ratio(static_cast<double>(s.sweeps), passes), "count");
      w.add("gen.source.ns_per_inv" + k, ratio(self(kSource), inv), "ns");
      w.add("exp.sink.ns_per_inv" + k, ratio(self(kSink), inv), "ns");
      w.add("sim.self.share" + k, ratio(wall_ns - covered, wall_ns), "fraction");
      w.add("sim.self.ns_per_inv" + k, ratio(wall_ns - covered, inv), "ns");
      w.add("sim.events_per_inv" + k, ratio(static_cast<double>(s.events), inv),
            "1/inv");
      w.add("trace.overhead_ratio" + k, fastest(pr.traced_ns) / fastest(pr.ns),
            "ratio");
      w.add("trace.covered_share" + k, ratio(covered, wall_ns), "fraction");
    }
  }

  if (!errors_.empty()) {
    std::cerr << "\nOUTPUT CHECK FAILED (" << errors_.size() << "):\n";
    for (const auto& e : errors_) std::cerr << "  " << e << "\n";
  } else {
    std::cout << "\nall output checks passed\n";
  }
  std::cout << "{\"correct\": " << (errors_.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": {" << w.json() << "}}" << std::endl;
}

int Bench::run() {
  for (const auto& p : platforms()) {
    PlatformRun pr;
    pr.platform = p;
    runs_.push_back(std::move(pr));
  }
  std::cout << "workload " << wl_.describe() << "\nwarm-up passes:\n";
  warm_up();
  if (opt_.trace)
    measure_traced();
  else
    measure_untraced();
  std::cout << "ns per invocation, untraced passes:\n";
  for (const auto& pr : runs_) {
    std::cout << "  " << std::left << std::setw(12) << pr.platform.key
              << std::right << std::fixed << std::setprecision(0)
              << " segment floor "
              << fastest_segments(pr.segment_floor, pr.reference.finalized)
              << ", fastest pass " << fastest(pr.ns) << ", median pass "
              << median(pr.ns) << " of " << pr.ns.size() << " passes\n"
              << std::defaultfloat << std::setprecision(6);
  }
  print_result();
  return errors_.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    Bench bench(opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "libra_perfbench: " << e.what() << "\n";
    return 1;
  }
}
