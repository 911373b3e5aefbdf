// Adapter: wraps a fully materialized trace (the workload:: generators'
// output) behind the pull-based gen::TraceSource interface. It is how a
// pre-built trace reaches Engine::run, the engine's one run path:
// exp::run_experiment's vector overload, the chaos oracle and the tests all
// build one at the call site. It lives here rather than in `sim` because
// `workload` links `sim`. The golden replay digests are pinned through it
// (tests/test_golden_replay.cpp, tests/test_streaming.cpp).
#pragma once

#include <utility>
#include <vector>

#include "gen/trace_source.h"
#include "sim/invocation.h"

namespace libra::workload {

class MaterializedSource final : public gen::TraceSource {
 public:
  /// The trace must be sorted by arrival; throws std::invalid_argument
  /// otherwise. NaN arrivals pass this check — Engine::run rejects them.
  explicit MaterializedSource(std::vector<sim::Invocation> trace);

  std::optional<sim::SimTime> peek_arrival() override;
  sim::Invocation next() override;
  sim::SimTime horizon() const override { return last_arrival_; }
  size_t size_hint() const override { return trace_.size(); }

 private:
  std::vector<sim::Invocation> trace_;
  size_t pos_ = 0;
  sim::SimTime last_arrival_ = 0.0;
};

}  // namespace libra::workload
