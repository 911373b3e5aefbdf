#include "sim/chaos/repro.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace libra::chaos {

namespace {

/// %.17g round-trips every finite double and prints "inf" for kNever.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Line {
  std::string keyword;
  std::vector<std::string> tokens;  // operands after the keyword
  int number = 0;                   // 1-based, for error messages
};

[[noreturn]] void bad_line(const Line& line, const std::string& why) {
  throw std::invalid_argument("chaos repro line " + std::to_string(line.number) +
                              " (" + line.keyword + "): " + why);
}

double parse_double(const Line& line, size_t idx) {
  if (idx >= line.tokens.size()) bad_line(line, "missing operand");
  const std::string& tok = line.tokens[idx];
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0')
    bad_line(line, "bad number '" + tok + "'");
  return v;
}

long long parse_int(const Line& line, size_t idx) {
  if (idx >= line.tokens.size()) bad_line(line, "missing operand");
  const std::string& tok = line.tokens[idx];
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0')
    bad_line(line, "bad integer '" + tok + "'");
  return v;
}

uint64_t parse_u64(const Line& line, size_t idx) {
  if (idx >= line.tokens.size()) bad_line(line, "missing operand");
  const std::string& tok = line.tokens[idx];
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (end == tok.c_str() || *end != '\0')
    bad_line(line, "bad unsigned '" + tok + "'");
  return static_cast<uint64_t>(v);
}

void expect_arity(const Line& line, size_t n) {
  if (line.tokens.size() != n)
    bad_line(line, "expected " + std::to_string(n) + " operands, got " +
                       std::to_string(line.tokens.size()));
}

}  // namespace

std::string serialize_scenario(const Scenario& sc) {
  std::ostringstream os;
  os << "libra-chaos-repro v1\n";
  os << "seed " << sc.seed << "\n";
  os << "num_shards " << sc.num_shards << "\n";
  os << "controllers " << sc.num_controllers << " " << sc.controllers_b
     << "\n";
  os << "gossip " << fmt(sc.gossip_period) << " " << sc.gossip_fanout << "\n";
  os << "spot_drain_notice " << fmt(sc.spot_drain_notice) << "\n";
  for (const auto& cap : sc.node_capacities)
    os << "node " << fmt(cap.cpu) << " " << fmt(cap.mem) << "\n";
  for (const auto& o : sc.plan.outages)
    os << "outage " << o.node << " " << fmt(o.down_at) << " " << fmt(o.up_at)
       << " " << (o.spot ? 1 : 0) << "\n";
  for (const auto& w : sc.plan.ping_blackouts)
    os << "ping_blackout " << w.node << " " << fmt(w.from) << " "
       << fmt(w.until) << "\n";
  for (const auto& w : sc.plan.cold_start_failures)
    os << "cold_window " << w.node << " " << fmt(w.from) << " " << fmt(w.until)
       << "\n";
  for (const auto& w : sc.plan.monitor_blackouts)
    os << "monitor_blackout " << w.node << " " << fmt(w.from) << " "
       << fmt(w.until) << "\n";
  for (const auto& p : sc.plan.prediction_faults)
    os << "pred_fault " << static_cast<int>(p.kind) << " " << p.func << " "
       << fmt(p.from) << " " << fmt(p.until) << " " << fmt(p.severity) << "\n";
  os << "profile " << sc.profile.seed << " " << fmt(sc.profile.node_mtbf) << " "
     << fmt(sc.profile.node_mttr) << " " << fmt(sc.profile.ping_drop_prob)
     << " " << fmt(sc.profile.ping_delay_prob) << " "
     << fmt(sc.profile.ping_delay_mean) << " "
     << fmt(sc.profile.cold_start_fail_prob) << " "
     << fmt(sc.profile.monitor_skip_prob) << " "
     << fmt(sc.profile.gossip_drop_prob) << " "
     << fmt(sc.profile.gossip_delay_prob) << " "
     << fmt(sc.profile.gossip_delay_mean) << "\n";
  os << "gen " << sc.gen.functions << " " << fmt(sc.gen.rpm) << " "
     << fmt(sc.gen.duration) << " " << sc.gen.seed << " " << fmt(sc.gen.zipf_s)
     << " " << fmt(sc.gen.diurnal_amplitude) << " "
     << fmt(sc.gen.diurnal_period) << " " << fmt(sc.gen.diurnal_phase) << " "
     << fmt(sc.gen.burst_episodes_per_min) << " "
     << fmt(sc.gen.burst_size_mean) << " " << fmt(sc.gen.burst_spacing) << " "
     << fmt(sc.gen.mean_work) << "\n";
  os << "num_tenants " << sc.num_tenants << "\n";
  for (const auto& [tenant, cap] : sc.tenant_quotas)
    os << "quota " << tenant << " " << fmt(cap.cpu) << " " << fmt(cap.mem)
       << "\n";
  if (sc.inject.kind != InjectKind::kNone)
    os << "inject " << static_cast<int>(sc.inject.kind) << " "
       << sc.inject.at_event << "\n";
  os << "end\n";
  return os.str();
}

Scenario parse_scenario(const std::string& text) {
  std::istringstream is(text);
  std::string raw;
  std::vector<Line> lines;
  int number = 0;
  while (std::getline(is, raw)) {
    ++number;
    std::istringstream ls(raw);
    Line line;
    line.number = number;
    if (!(ls >> line.keyword)) continue;  // blank line
    std::string tok;
    while (ls >> tok) line.tokens.push_back(tok);
    lines.push_back(std::move(line));
  }
  if (lines.empty() || lines.front().keyword != "libra-chaos-repro" ||
      lines.front().tokens != std::vector<std::string>{"v1"}) {
    throw std::invalid_argument(
        "chaos repro: missing 'libra-chaos-repro v1' header");
  }

  Scenario sc;
  sc.num_tenants = 1;
  bool saw_end = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    const Line& line = lines[i];
    if (saw_end) bad_line(line, "content after 'end'");
    if (line.keyword == "seed") {
      expect_arity(line, 1);
      sc.seed = parse_u64(line, 0);
    } else if (line.keyword == "workers_b") {
      // Artifacts from before the one-thread engine name the worker count
      // of a parallel leg the oracle no longer runs: checked, then ignored.
      expect_arity(line, 1);
      (void)parse_int(line, 0);
    } else if (line.keyword == "num_shards") {
      expect_arity(line, 1);
      sc.num_shards = static_cast<int>(parse_int(line, 0));
    } else if (line.keyword == "spot_drain_notice") {
      expect_arity(line, 1);
      sc.spot_drain_notice = parse_double(line, 0);
    } else if (line.keyword == "node") {
      expect_arity(line, 2);
      sc.node_capacities.push_back(
          {parse_double(line, 0), parse_double(line, 1)});
    } else if (line.keyword == "outage") {
      expect_arity(line, 4);
      sim::fault::NodeOutage o;
      o.node = static_cast<sim::NodeId>(parse_int(line, 0));
      o.down_at = parse_double(line, 1);
      o.up_at = parse_double(line, 2);
      o.spot = parse_int(line, 3) != 0;
      sc.plan.outages.push_back(o);
    } else if (line.keyword == "ping_blackout" || line.keyword == "cold_window" ||
               line.keyword == "monitor_blackout") {
      expect_arity(line, 3);
      sim::fault::FaultWindow w;
      w.node = static_cast<sim::NodeId>(parse_int(line, 0));
      w.from = parse_double(line, 1);
      w.until = parse_double(line, 2);
      if (line.keyword == "ping_blackout")
        sc.plan.ping_blackouts.push_back(w);
      else if (line.keyword == "cold_window")
        sc.plan.cold_start_failures.push_back(w);
      else
        sc.plan.monitor_blackouts.push_back(w);
    } else if (line.keyword == "pred_fault") {
      expect_arity(line, 5);
      sim::fault::PredictionFault p;
      const long long kind = parse_int(line, 0);
      if (kind < 0 || kind > static_cast<int>(sim::fault::PredFaultKind::kOutage))
        bad_line(line, "unknown prediction-fault kind");
      p.kind = static_cast<sim::fault::PredFaultKind>(kind);
      p.func = static_cast<sim::FunctionId>(parse_int(line, 1));
      p.from = parse_double(line, 2);
      p.until = parse_double(line, 3);
      p.severity = parse_double(line, 4);
      sc.plan.prediction_faults.push_back(p);
    } else if (line.keyword == "controllers") {
      expect_arity(line, 2);
      sc.num_controllers = static_cast<int>(parse_int(line, 0));
      sc.controllers_b = static_cast<int>(parse_int(line, 1));
    } else if (line.keyword == "gossip") {
      expect_arity(line, 2);
      sc.gossip_period = parse_double(line, 0);
      sc.gossip_fanout = static_cast<int>(parse_int(line, 1));
    } else if (line.keyword == "profile") {
      // 8 operands = pre-control-plane artifacts (gossip faults default to
      // off); 11 = current format with the gossip fault probabilities.
      if (line.tokens.size() != 8 && line.tokens.size() != 11)
        bad_line(line, "expected 8 or 11 operands, got " +
                           std::to_string(line.tokens.size()));
      sc.profile.seed = parse_u64(line, 0);
      sc.profile.node_mtbf = parse_double(line, 1);
      sc.profile.node_mttr = parse_double(line, 2);
      sc.profile.ping_drop_prob = parse_double(line, 3);
      sc.profile.ping_delay_prob = parse_double(line, 4);
      sc.profile.ping_delay_mean = parse_double(line, 5);
      sc.profile.cold_start_fail_prob = parse_double(line, 6);
      sc.profile.monitor_skip_prob = parse_double(line, 7);
      if (line.tokens.size() == 11) {
        sc.profile.gossip_drop_prob = parse_double(line, 8);
        sc.profile.gossip_delay_prob = parse_double(line, 9);
        sc.profile.gossip_delay_mean = parse_double(line, 10);
      }
    } else if (line.keyword == "gen") {
      expect_arity(line, 12);
      sc.gen.functions = static_cast<int>(parse_int(line, 0));
      sc.gen.rpm = parse_double(line, 1);
      sc.gen.duration = parse_double(line, 2);
      sc.gen.seed = parse_u64(line, 3);
      sc.gen.zipf_s = parse_double(line, 4);
      sc.gen.diurnal_amplitude = parse_double(line, 5);
      sc.gen.diurnal_period = parse_double(line, 6);
      sc.gen.diurnal_phase = parse_double(line, 7);
      sc.gen.burst_episodes_per_min = parse_double(line, 8);
      sc.gen.burst_size_mean = parse_double(line, 9);
      sc.gen.burst_spacing = parse_double(line, 10);
      sc.gen.mean_work = parse_double(line, 11);
    } else if (line.keyword == "num_tenants") {
      expect_arity(line, 1);
      sc.num_tenants = static_cast<int>(parse_int(line, 0));
    } else if (line.keyword == "quota") {
      expect_arity(line, 3);
      sc.tenant_quotas[static_cast<int>(parse_int(line, 0))] = {
          parse_double(line, 1), parse_double(line, 2)};
    } else if (line.keyword == "inject") {
      expect_arity(line, 2);
      const long long kind = parse_int(line, 0);
      if (kind < 0 || kind > static_cast<int>(InjectKind::kTenantQuota))
        bad_line(line, "unknown inject kind");
      sc.inject.kind = static_cast<InjectKind>(kind);
      sc.inject.at_event = static_cast<long>(parse_int(line, 1));
    } else if (line.keyword == "end") {
      saw_end = true;
    } else {
      bad_line(line, "unknown keyword");
    }
  }
  if (!saw_end) throw std::invalid_argument("chaos repro: missing 'end' line");
  sc.validate();
  return sc;
}

}  // namespace libra::chaos
