#include "workloads.h"

#include <sstream>
#include <stdexcept>

#include "exp/runner.h"
#include "gen/synthetic_source.h"
#include "workload/function_catalog.h"
#include "workload/materialized_source.h"
#include "workload/trace.h"

namespace perfbench {

namespace {

/// The synthetic deployment: a fixed ~200-function catalog. Only the traffic
/// over it varies with --seed.
constexpr uint64_t kCatalogSeed = 20230616;
constexpr int kFunctions = 200;
constexpr int kShards = 4;
/// Arrivals per second of every synthetic stream: 4 per node on 50 nodes,
/// which leaves the 24-core nodes unsaturated, so scheduling decisions track
/// invocations one to one.
constexpr double kStreamRate = 200.0;

gen::GenConfig stream_config(uint64_t seed, double seconds) {
  gen::GenConfig g;
  g.functions = kFunctions;
  g.seed = seed;
  g.rpm = kStreamRate * 60.0;
  g.duration = seconds;
  // One full diurnal cycle inside the window.
  g.diurnal_period = seconds;
  return g;
}

}  // namespace

const std::vector<Platform>& platforms() {
  static const std::vector<Platform> kAll = {
      {exp::PlatformKind::kDefault, "default"},
      {exp::PlatformKind::kFreyr, "freyr"},
      {exp::PlatformKind::kLibra, "libra"},
      {exp::PlatformKind::kLibraTrust, "libra_trust"},
  };
  return kAll;
}

const std::vector<std::string>& Workload::names() {
  static const std::vector<std::string> kNames = {
      "steady-50n", "backlog-burst", "churn-4ctl"};
  return kNames;
}

Workload::Workload(const std::string& name, uint64_t seed)
    : name_(name), seed_(seed) {
  int nodes = 50;
  if (name == "steady-50n") {
    stream_seconds_ = 60.0;
  } else if (name == "backlog-burst") {
    // About four times what 10 nodes hold at once. The retry work per
    // invocation grows with the backlog, so the burst is sized to the
    // cluster rather than to the 50-node stream shape.
    nodes = 10;
    burst_ = true;
    burst_count_ = 400;
  } else if (name == "churn-4ctl") {
    // Twice steady-50n's stream: the cost of a crash depends on which
    // functions it strands, so more crashes per pass keep the per-invocation
    // work from swinging with the seed.
    stream_seconds_ = 120.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }

  cfg_ = exp::jetstream_config(nodes, kShards);
  cfg_.sched_workers = 1;
  // The streaming engine path: no retained record vector, recycled records,
  // cluster series sampled once per simulated second. Records reach the
  // benchmark through EngineConfig::record_sink.
  cfg_.retain_records = false;
  cfg_.recycle_records = true;
  cfg_.series_resolution = 1.0;

  if (name == "churn-4ctl") {
    // Sampled crash/recovery churn: each node fails about once every 10
    // simulated minutes and is back within ~10 s, well inside the retry
    // budget, so no invocation is lost. The churn is part of the deployment,
    // like the catalog: its seed is fixed, so every run sees the same
    // outages and only the traffic varies with --seed.
    cfg_.fault_profile.seed = kCatalogSeed;
    cfg_.fault_profile.node_mtbf = 600.0;
    cfg_.fault_profile.node_mttr = 10.0;
    cfg_.control.num_controllers = 4;
    cfg_.control.gossip_period = 1.0;
  }
}

std::string Workload::describe() const {
  std::ostringstream os;
  os << name_ << ": " << nodes() << " nodes, " << cfg_.num_shards
     << " shards, ";
  if (burst_) {
    os << burst_count_ << " simultaneous invocations over the SeBS catalog";
  } else {
    os << kFunctions << "-function synthetic catalog, " << kStreamRate
       << " arrivals/s for " << stream_seconds_ << " simulated s";
  }
  if (cfg_.control.num_controllers > 1)
    os << ", " << cfg_.control.num_controllers << " controllers (gossip every "
       << cfg_.control.gossip_period << " s)";
  if (cfg_.fault_profile.node_mtbf > 0.0)
    os << ", churn mtbf " << cfg_.fault_profile.node_mtbf << " s / mttr "
       << cfg_.fault_profile.node_mttr << " s";
  os << ", seed " << seed_;
  return os.str();
}

Inputs Workload::build_inputs() const {
  Inputs in;
  if (burst_) {
    in.catalog = std::make_shared<const sim::FunctionCatalog>(
        libra::workload::sebs_catalog());
    in.trace = libra::workload::burst_trace(*in.catalog, burst_count_, seed_);
  } else {
    gen::GenConfig g = stream_config(kCatalogSeed, stream_seconds_);
    in.catalog = std::make_shared<const sim::FunctionCatalog>(
        gen::synthetic_catalog(g));
  }
  return in;
}

std::unique_ptr<gen::TraceSource> Workload::make_source(const Inputs& in) const {
  if (burst_)
    return std::make_unique<libra::workload::MaterializedSource>(in.trace);
  return std::make_unique<gen::SyntheticSource>(
      stream_config(seed_, stream_seconds_), in.catalog);
}

long Workload::emitted(const gen::TraceSource& source, const Inputs& in) {
  if (const auto* s = dynamic_cast<const gen::SyntheticSource*>(&source))
    return static_cast<long>(s->emitted());
  return static_cast<long>(in.trace.size());
}

}  // namespace perfbench
