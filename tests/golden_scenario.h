// The golden replay scenarios behind the digests of tests/golden_cases.h,
// built in one place for tests/test_golden_replay.cpp and
// tests/test_streaming.cpp: both suites run them through the engine's one
// run path, so they must build them identically.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exp/platforms.h"
#include "exp/runner.h"
#include "sim/engine_config.h"
#include "sim/function.h"
#include "sim/invocation.h"
#include "sim/policy.h"
#include "workload/function_catalog.h"
#include "workload/trace.h"

namespace libra::golden {

inline std::shared_ptr<const sim::FunctionCatalog> catalog() {
  static auto cat =
      std::make_shared<const sim::FunctionCatalog>(workload::sebs_catalog());
  return cat;
}

struct Scenario {
  sim::EngineConfig cfg;
  std::shared_ptr<sim::Policy> policy;
  std::vector<sim::Invocation> trace;
};

/// Builds the named scenario fresh on every call: policies are stateful, so
/// each run needs its own instance.
inline Scenario build_scenario(const std::string& name) {
  auto cat = catalog();
  Scenario s;
  if (name == "default" || name == "freyr" || name == "libra" ||
      name == "libra_trust") {
    s.cfg = exp::jetstream_config(8, 4);
    s.trace = workload::multi_trace(*cat, 120, 5);
    const exp::PlatformKind kind =
        name == "default"  ? exp::PlatformKind::kDefault
        : name == "freyr"  ? exp::PlatformKind::kFreyr
        : name == "libra"  ? exp::PlatformKind::kLibra
                           : exp::PlatformKind::kLibraTrust;
    s.policy = exp::make_platform(kind, cat);
  } else {
    s.cfg = exp::multi_node_config(4);
    s.trace = workload::multi_trace(*cat, 120, 7);
    const exp::SchedulerKind kind =
        name == "sched_rr"    ? exp::SchedulerKind::kRoundRobin
        : name == "sched_jsq" ? exp::SchedulerKind::kJsq
                              : exp::SchedulerKind::kMws;
    s.policy = exp::make_scheduler_platform(kind, cat);
  }
  return s;
}

}  // namespace libra::golden
