// The benchmark's workloads. Each one fixes a cluster shape and an input; the
// invocation stream (or burst trace) is derived from the --seed argument, and
// the function catalog of the synthetic workloads from a fixed seed, so runs
// with different seeds exercise one deployment under different traffic.
// README.md in this directory says why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/platforms.h"
#include "gen/trace_source.h"
#include "sim/engine_config.h"
#include "sim/function.h"
#include "sim/invocation.h"

namespace perfbench {

namespace sim = libra::sim;
namespace gen = libra::gen;
namespace exp = libra::exp;

struct Platform {
  exp::PlatformKind kind;
  const char* key;  // metric-name suffix
};

/// Every workload runs all four platforms, so each end-to-end metric exists
/// on each workload.
const std::vector<Platform>& platforms();

/// The catalog and, for trace workloads, the materialized trace: everything
/// built before the first pass (timed as setup.catalog_s).
struct Inputs {
  std::shared_ptr<const sim::FunctionCatalog> catalog;
  std::vector<sim::Invocation> trace;  // empty for streaming workloads
};

class Workload {
 public:
  /// Throws std::invalid_argument on an unknown name.
  Workload(const std::string& name, uint64_t seed);

  static const std::vector<std::string>& names();

  const std::string& name() const { return name_; }
  const sim::EngineConfig& config() const { return cfg_; }
  int nodes() const { return static_cast<int>(cfg_.node_capacities.size()); }
  std::string describe() const;

  Inputs build_inputs() const;
  /// A fresh source yielding the workload's input from its first arrival.
  std::unique_ptr<gen::TraceSource> make_source(const Inputs& in) const;
  /// Invocations a source built by make_source() has handed out so far.
  static long emitted(const gen::TraceSource& source, const Inputs& in);

 private:
  std::string name_;
  uint64_t seed_;
  sim::EngineConfig cfg_;
  bool burst_ = false;
  size_t burst_count_ = 0;
  double stream_seconds_ = 0.0;
};

}  // namespace perfbench
