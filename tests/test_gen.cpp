// Statistical and determinism tests for the src/gen synthetic workload
// generator: seeded reproducibility (same seed -> byte-identical stream),
// Zipf popularity tail and diurnal rate shape within distribution-level
// tolerances (KS / chi-square style checks on the lazily drawn stream),
// heavy-tailed marginals from the synthetic catalog, config validation, and
// the MaterializedSource adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cli.h"
#include "gen/gen_config.h"
#include "gen/synthetic_source.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace libra {
namespace {

gen::GenConfig small_cfg() {
  gen::GenConfig cfg;
  cfg.functions = 500;
  cfg.rpm = 6000.0;  // 100 req/s
  cfg.duration = 120.0;
  cfg.seed = 7;
  return cfg;
}

std::vector<sim::Invocation> drain(gen::SyntheticSource& src) {
  std::vector<sim::Invocation> out;
  while (src.peek_arrival().has_value()) out.push_back(src.next());
  return out;
}

// ---------------- determinism ----------------

TEST(Gen, SameSeedYieldsIdenticalStream) {
  gen::SyntheticSource a(small_cfg());
  gen::SyntheticSource b(small_cfg());
  const auto sa = drain(a);
  const auto sb = drain(b);
  ASSERT_EQ(sa.size(), sb.size());
  ASSERT_GT(sa.size(), 1000u);
  for (size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i].id, sb[i].id) << i;
    ASSERT_EQ(sa[i].func, sb[i].func) << i;
    ASSERT_EQ(sa[i].arrival, sb[i].arrival) << i;  // bit-identical
    ASSERT_EQ(sa[i].input.size, sb[i].input.size) << i;
    ASSERT_EQ(sa[i].input.content_seed, sb[i].input.content_seed) << i;
    ASSERT_EQ(sa[i].truth.demand.cpu, sb[i].truth.demand.cpu) << i;
    ASSERT_EQ(sa[i].truth.demand.mem, sb[i].truth.demand.mem) << i;
    ASSERT_EQ(sa[i].truth.work, sb[i].truth.work) << i;
  }
}

TEST(Gen, DifferentSeedsDiverge) {
  auto cfg = small_cfg();
  gen::SyntheticSource a(cfg);
  cfg.seed = 8;
  gen::SyntheticSource b(cfg);
  const auto sa = drain(a);
  const auto sb = drain(b);
  bool differ = sa.size() != sb.size();
  for (size_t i = 0; !differ && i < sa.size(); ++i)
    differ = sa[i].arrival != sb[i].arrival || sa[i].func != sb[i].func;
  EXPECT_TRUE(differ);
}

TEST(Gen, StreamIsSortedSequentialAndWithinWindow) {
  auto cfg = small_cfg();
  gen::SyntheticSource src(cfg);
  double last = 0.0;
  sim::InvocationId expect_id = 0;
  while (auto at = src.peek_arrival()) {
    const sim::Invocation inv = src.next();
    EXPECT_EQ(inv.arrival, *at);
    EXPECT_GE(inv.arrival, last);
    EXPECT_LT(inv.arrival, cfg.duration);
    EXPECT_EQ(inv.id, expect_id++);
    last = inv.arrival;
  }
  EXPECT_EQ(src.emitted(), expect_id);
  EXPECT_THROW(src.next(), std::logic_error);
}

TEST(Gen, EmittedCountTracksExpectedInvocations) {
  auto cfg = small_cfg();
  gen::SyntheticSource src(cfg);
  const auto stream = drain(src);
  const double expected = static_cast<double>(cfg.expected_invocations());
  EXPECT_GT(static_cast<double>(stream.size()), 0.85 * expected);
  EXPECT_LT(static_cast<double>(stream.size()), 1.15 * expected);
}

// ---------------- popularity (Zipf) ----------------

// KS-style check: the empirical function-popularity CDF (functions are
// ordered by rank — weight (f+1)^-s) must track the theoretical Zipf CDF.
TEST(Gen, ZipfPopularityTailWithinTolerance) {
  auto cfg = small_cfg();
  cfg.functions = 1000;
  cfg.zipf_s = 1.0;
  cfg.burst_episodes_per_min = 0.0;  // isolate the base popularity draws
  cfg.diurnal_amplitude = 0.0;
  gen::SyntheticSource src(cfg);
  const auto stream = drain(src);
  ASSERT_GT(stream.size(), 8000u);

  std::vector<double> counts(static_cast<size_t>(cfg.functions), 0.0);
  for (const auto& inv : stream) ++counts[static_cast<size_t>(inv.func)];

  std::vector<double> weights(counts.size());
  double total_w = 0.0;
  for (size_t f = 0; f < weights.size(); ++f) {
    weights[f] = std::pow(static_cast<double>(f + 1), -cfg.zipf_s);
    total_w += weights[f];
  }
  const double n = static_cast<double>(stream.size());
  double emp = 0.0, theory = 0.0, ks = 0.0;
  for (size_t f = 0; f < counts.size(); ++f) {
    emp += counts[f] / n;
    theory += weights[f] / total_w;
    ks = std::max(ks, std::abs(emp - theory));
  }
  // KS critical value at alpha=0.001 for n=8000 is ~0.022; leave headroom.
  EXPECT_LT(ks, 0.03);

  // Tail sanity: rank-1 share near 1/H(1000) ~= 13.4%, and the top decile
  // must dominate the bottom half by an order of magnitude.
  const double top_share = counts[0] / n;
  EXPECT_GT(top_share, 0.08);
  EXPECT_LT(top_share, 0.20);
  double top100 = 0.0, bottom500 = 0.0;
  for (size_t f = 0; f < 100; ++f) top100 += counts[f];
  for (size_t f = 500; f < 1000; ++f) bottom500 += counts[f];
  EXPECT_GT(top100, 5.0 * bottom500);
}

// ---------------- diurnal shape ----------------

TEST(Gen, DiurnalRateShapeWithinTolerance) {
  gen::GenConfig cfg;
  cfg.functions = 200;
  cfg.rpm = 12000.0;  // 200 req/s
  cfg.duration = 200.0;
  cfg.diurnal_period = 200.0;  // one full cycle inside the window
  cfg.diurnal_amplitude = 0.6;
  cfg.burst_episodes_per_min = 0.0;
  cfg.seed = 11;
  gen::SyntheticSource src(cfg);

  // rate_at exposes the analytic envelope exactly.
  const double base = cfg.rpm / 60.0;
  EXPECT_NEAR(src.rate_at(50.0), base * 1.6, 1e-9);    // sin peak
  EXPECT_NEAR(src.rate_at(150.0), base * 0.4, 1e-9);   // sin trough

  const auto stream = drain(src);
  ASSERT_GT(stream.size(), 20000u);

  // Chi-square over 10 equal time bins against the integrated rate.
  const int bins = 10;
  std::vector<double> observed(bins, 0.0);
  for (const auto& inv : stream)
    ++observed[std::min<int>(bins - 1,
                             static_cast<int>(inv.arrival / cfg.duration *
                                              bins))];
  const double n = static_cast<double>(stream.size());
  double chi2 = 0.0;
  for (int b = 0; b < bins; ++b) {
    const double t0 = cfg.duration * b / bins;
    const double t1 = cfg.duration * (b + 1) / bins;
    const double w = 2.0 * M_PI / cfg.diurnal_period;
    // integral of (1 + a sin(w t)) over [t0, t1], normalized by duration.
    const double mass =
        (t1 - t0) + cfg.diurnal_amplitude / w *
                        (std::cos(w * t0) - std::cos(w * t1));
    const double expected = n * mass / cfg.duration;
    chi2 += (observed[b] - expected) * (observed[b] - expected) / expected;
  }
  // 9 degrees of freedom: chi2 > 40 has p < 1e-5 — a real shape mismatch.
  EXPECT_LT(chi2, 40.0) << "diurnal bin counts diverge from the sinusoid";

  // The rising half-cycle must carry visibly more arrivals than the falling
  // one: expected ratio (1 + 2a/pi)/(1 - 2a/pi) ~= 2.24 at a = 0.6.
  double first = 0.0;
  for (const auto& inv : stream)
    if (inv.arrival < cfg.duration / 2) ++first;
  const double ratio = first / (n - first);
  EXPECT_GT(ratio, 1.8);
  EXPECT_LT(ratio, 2.8);
}

// ---------------- bursts ----------------

TEST(Gen, BurstEpisodesAddCorrelatedArrivals) {
  auto cfg = small_cfg();
  cfg.burst_episodes_per_min = 0.0;
  gen::SyntheticSource quiet(cfg);
  const size_t base_count = drain(quiet).size();

  cfg.burst_episodes_per_min = 60.0;  // one episode per second
  cfg.burst_size_mean = 10.0;
  gen::SyntheticSource bursty(cfg);
  const auto stream = drain(bursty);
  // ~120 s * 1 ep/s * ~10 arrivals = ~1200 extra on top of ~12000 base.
  EXPECT_GT(stream.size(), base_count + 500);

  // Correlation: a burst reuses one function, so the count of consecutive
  // same-function pairs must far exceed the uncorrelated expectation
  // (sum p_f^2 ~ a few percent under Zipf over 500 functions).
  size_t same = 0;
  for (size_t i = 1; i < stream.size(); ++i)
    if (stream[i].func == stream[i - 1].func) ++same;
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(stream.size()),
            0.05);
}

// ---------------- marginals ----------------

TEST(Gen, CatalogMarginalsAreHeavyTailedAndFitShardSlices) {
  auto cfg = small_cfg();
  cfg.functions = 2000;
  const sim::FunctionCatalog catalog = gen::synthetic_catalog(cfg);
  ASSERT_EQ(catalog.size(), 2000u);

  std::vector<double> mem, work;
  for (const auto& fn : catalog.all()) {
    const sim::Resources alloc = fn->user_allocation();
    // Every function must fit a 4-shard slice of a 24c/24GB jetstream node.
    EXPECT_GE(alloc.cpu, 1.0);
    EXPECT_LE(alloc.cpu, 4.0);
    EXPECT_GE(alloc.mem, 128.0);
    EXPECT_LE(alloc.mem, 2048.0);
    mem.push_back(alloc.mem);
    util::Rng rng(fn->id() * 977 + 5);
    work.push_back(fn->evaluate(fn->sample_input(rng)).work);
  }
  std::sort(mem.begin(), mem.end());
  std::sort(work.begin(), work.end());
  const auto q = [](const std::vector<double>& xs, double p) {
    return xs[static_cast<size_t>(p * static_cast<double>(xs.size() - 1))];
  };
  // Lognormal-style spread: p99/p50 well above a light-tailed distribution.
  EXPECT_GT(q(mem, 0.99) / q(mem, 0.5), 2.5);
  EXPECT_GT(q(work, 0.99) / q(work, 0.5), 4.0);
}

TEST(Gen, CatalogIsSeedDeterministic) {
  const auto cfg = small_cfg();
  const sim::FunctionCatalog a = gen::synthetic_catalog(cfg);
  const sim::FunctionCatalog b = gen::synthetic_catalog(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t f = 0; f < a.size(); ++f) {
    EXPECT_EQ(a.at(f).user_allocation().cpu, b.at(f).user_allocation().cpu);
    EXPECT_EQ(a.at(f).user_allocation().mem, b.at(f).user_allocation().mem);
    EXPECT_EQ(a.at(f).size_related(), b.at(f).size_related());
  }
}

// ---------------- config validation ----------------

TEST(GenConfig, ValidateRejectsBadKnobs) {
  const auto bad = [](auto mutate) {
    gen::GenConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  bad([](gen::GenConfig& c) { c.functions = 0; });
  bad([](gen::GenConfig& c) { c.rpm = 0.0; });
  bad([](gen::GenConfig& c) { c.duration = -1.0; });
  bad([](gen::GenConfig& c) { c.zipf_s = -0.1; });
  bad([](gen::GenConfig& c) { c.diurnal_amplitude = 1.0; });
  bad([](gen::GenConfig& c) { c.diurnal_period = 0.0; });
  bad([](gen::GenConfig& c) { c.burst_episodes_per_min = -2.0; });
  bad([](gen::GenConfig& c) { c.burst_spacing = 0.0; });
  bad([](gen::GenConfig& c) { c.mean_work = 0.0; });
  // In range but not finite: every double knob must reject inf and NaN.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {kInf, -kInf, kNaN}) {
    bad([v](gen::GenConfig& c) { c.rpm = v; });
    bad([v](gen::GenConfig& c) { c.duration = v; });
    bad([v](gen::GenConfig& c) { c.zipf_s = v; });
    bad([v](gen::GenConfig& c) { c.diurnal_amplitude = v; });
    bad([v](gen::GenConfig& c) { c.diurnal_period = v; });
    bad([v](gen::GenConfig& c) { c.diurnal_phase = v; });
    bad([v](gen::GenConfig& c) { c.burst_episodes_per_min = v; });
    bad([v](gen::GenConfig& c) { c.burst_size_mean = v; });
    bad([v](gen::GenConfig& c) { c.burst_spacing = v; });
    bad([v](gen::GenConfig& c) { c.mean_work = v; });
  }
  // Finite, but the expected count (1e21 at rpm 1e20) is past 2^53, where
  // expected_invocations() could not hold it.
  bad([](gen::GenConfig& c) { c.rpm = 1e20; });
  bad([](gen::GenConfig& c) { c.duration = 1e20; });
  gen::GenConfig huge;
  huge.rpm = 1e20;
  try {
    huge.validate();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("1e+21"), std::string::npos)
        << e.what();
  }
  gen::GenConfig ok;
  EXPECT_NO_THROW(ok.validate());
}

TEST(GenConfig, CliFlagsRoundTripAndBadValuesReachValidate) {
  const char* good[] = {"bench", "--gen-functions", "250", "--gen-rpm",
                        "1200",  "--gen-seed",      "42",  "--gen-minutes",
                        "2.5"};
  auto opt = exp::parse_cli(9, const_cast<char**>(good));
  EXPECT_TRUE(opt.gen);
  const gen::GenConfig cfg = opt.gen_config();  // validates
  EXPECT_EQ(cfg.functions, 250);
  EXPECT_DOUBLE_EQ(cfg.rpm, 1200.0);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_DOUBLE_EQ(cfg.duration, 150.0);

  // Bad values must NOT be silently replaced by defaults — they flow into
  // GenConfig so validate() rejects them by name.
  const char* bad[] = {"bench", "--gen-rpm", "0"};
  auto bopt = exp::parse_cli(3, const_cast<char**>(bad));
  EXPECT_TRUE(bopt.gen);
  EXPECT_THROW(bopt.gen_config(), std::invalid_argument);
  const char* neg[] = {"bench", "--gen-minutes", "-1"};
  EXPECT_THROW(exp::parse_cli(3, const_cast<char**>(neg)).gen_config(),
               std::invalid_argument);
  // Well-formed but not finite: parse_cli keeps it, validate() rejects it
  // (an infinite rate or window used to size the stream without bound).
  for (const char* flag : {"--gen-rpm", "--gen-minutes"})
    for (const char* value : {"inf", "-inf", "nan"}) {
      const char* argv[] = {"bench", flag, value};
      auto o = exp::parse_cli(3, const_cast<char**>(argv));
      EXPECT_THROW(o.gen_config(), std::invalid_argument)
          << flag << " " << value;
    }
  // 1e307 minutes is finite, but not once converted to seconds.
  const char* huge[] = {"bench", "--gen-minutes", "1e307"};
  EXPECT_THROW(exp::parse_cli(3, const_cast<char**>(huge)).gen_config(),
               std::invalid_argument);

  // Malformed or out of range for the field's type: parse_cli itself
  // rejects the value, naming the flag, instead of truncating, wrapping or
  // zeroing it.
  const auto rejected = [](const char* flag, const char* value) {
    const char* argv[] = {"bench", flag, value};
    try {
      exp::parse_cli(3, const_cast<char**>(argv));
      ADD_FAILURE() << flag << " " << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  };
  rejected("--gen-functions", "4294967297");  // used to narrow to 1
  rejected("--gen-functions", "12abc");       // used to read as 12
  rejected("--gen-functions", "");
  rejected("--gen-functions", "2.5");
  rejected("--gen-seed", "-1");  // used to wrap to 2^64 - 1
  rejected("--gen-seed", "abc");  // used to read as 0
  rejected("--gen-seed", "18446744073709551616");
  rejected("--gen-seed", " 7");
  rejected("--gen-rpm", "1200rpm");
  rejected("--gen-rpm", "1e400");
  rejected("--gen-minutes", "two");
  // The same value through the --flag=value spelling, and a flag with no
  // value at all.
  const char* eq[] = {"bench", "--gen-functions=12abc"};
  EXPECT_THROW(exp::parse_cli(2, const_cast<char**>(eq)),
               std::invalid_argument);
  const char* last[] = {"bench", "--gen-rpm"};
  EXPECT_THROW(exp::parse_cli(2, const_cast<char**>(last)),
               std::invalid_argument);

  // The edges of each type still parse.
  const char* edges[] = {"bench", "--gen-functions", "2147483647",
                         "--gen-seed", "18446744073709551615"};
  const auto e = exp::parse_cli(5, const_cast<char**>(edges));
  EXPECT_EQ(e.gen_cfg.functions, 2147483647);
  EXPECT_EQ(e.gen_cfg.seed, 18446744073709551615ULL);
}

// parse_cli_or_exit is what every bench's main() calls: --help exits 0, a
// flag parse_cli rejects exits 2 with the message and the usage on stderr.
TEST(BenchCliDeathTest, HelpExitsZero) {
  const char* argv[] = {"bench", "--help"};
  EXPECT_EXIT(exp::parse_cli_or_exit(2, const_cast<char**>(argv), "bench_x"),
              ::testing::ExitedWithCode(0), "");
}

TEST(BenchCliDeathTest, BadFlagExitsTwoWithMessageAndUsage) {
  const char* argv[] = {"bench", "--gen-seed", "abc"};
  EXPECT_EXIT(exp::parse_cli_or_exit(3, const_cast<char**>(argv), "bench_x"),
              ::testing::ExitedWithCode(2),
              "--gen-seed: malformed value 'abc'.*bench_x \\[options\\]"
              ".*--gen-functions N");
  // A good command line comes back parsed.
  const char* good[] = {"bench", "--smoke"};
  EXPECT_TRUE(
      exp::parse_cli_or_exit(2, const_cast<char**>(good), "bench_x").smoke);
}

// ---------------- MaterializedSource adapter ----------------

TEST(MaterializedSource, ReplaysTraceAndReportsHorizon) {
  auto cfg = small_cfg();
  gen::SyntheticSource synth(cfg);
  auto trace = drain(synth);
  const double last_arrival = trace.back().arrival;
  const size_t n = trace.size();

  workload::MaterializedSource src(std::move(trace));
  EXPECT_EQ(src.size_hint(), n);
  EXPECT_EQ(src.horizon(), last_arrival);
  size_t pulled = 0;
  while (auto at = src.peek_arrival()) {
    const sim::Invocation inv = src.next();
    EXPECT_EQ(inv.arrival, *at);
    ++pulled;
  }
  EXPECT_EQ(pulled, n);
  EXPECT_THROW(src.next(), std::logic_error);
}

TEST(MaterializedSource, RejectsUnsortedTrace) {
  auto cfg = small_cfg();
  gen::SyntheticSource synth(cfg);
  auto trace = drain(synth);
  ASSERT_GT(trace.size(), 2u);
  std::swap(trace.front().arrival, trace.back().arrival);
  EXPECT_THROW(workload::MaterializedSource src(std::move(trace)),
               std::invalid_argument);
}

}  // namespace
}  // namespace libra
