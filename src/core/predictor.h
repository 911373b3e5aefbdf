// Demand prediction interface (Fig. 3 steps 3 & 5). Given an incoming
// invocation, a predictor fills in the three metrics of §4 — CPU usage peak,
// memory usage peak and execution time — and is fed the actual utilization
// observed at completion. Implementations:
//   * Profiler           — Libra's duplicator + ML/histogram pipeline (§4)
//   * MovingWindowPredictor — the Libra-NP ablation (max over last n)
//   * EwmaPredictor      — the Freyr stand-in (no input-size feature)
//   * UserConfigPredictor — predicts exactly the user allocation (no-op)
#pragma once

#include <memory>
#include <string>

#include "sim/invocation.h"
#include "sim/types.h"

namespace libra::core {

/// Telemetry the platform collects when an invocation completes.
struct Observation {
  sim::FunctionId func = 0;
  sim::InputSpec input;
  /// Peak utilization the container monitor reported (capped by the largest
  /// allocation the invocation ever had).
  sim::Resources observed_peak;
  /// Actual execution time (exec start to finish).
  double exec_duration = 0.0;
};

class DemandPredictor {
 public:
  virtual ~DemandPredictor() = default;

  virtual std::string name() const = 0;

  /// Fills inv.pred_demand, inv.pred_duration (expected execution time when
  /// granted exactly pred_demand), inv.pred_size_related and inv.first_seen.
  virtual void predict(sim::Invocation& inv) = 0;

  /// Online model update after completion.
  virtual void observe(const Observation& obs) = 0;

  /// Pre-trains the predictor on historical executions, matching the
  /// paper's methodology (§8.2.3): models are initialized on training data
  /// before the evaluation run; the evaluation trace is held-out test data.
  /// The default implementation feeds `samples_per_function` full-allocation
  /// observations per function through observe().
  virtual void prewarm(const sim::FunctionCatalog& catalog, uint64_t seed,
                       int samples_per_function);
};

using PredictorPtr = std::shared_ptr<DemandPredictor>;

/// Trivial predictor: demands == user allocation (the Default platform's
/// implicit assumption). Never classifies anything as accelerable.
class UserConfigPredictor final : public DemandPredictor {
 public:
  std::string name() const override { return "user-config"; }
  void predict(sim::Invocation& inv) override {
    inv.pred_demand = inv.user_alloc;
    inv.pred_duration = 1.0;
    inv.pred_size_related = false;
    inv.first_seen = false;
  }
  void observe(const Observation&) override {}
};

}  // namespace libra::core
