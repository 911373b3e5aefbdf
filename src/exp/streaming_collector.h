// Sketch-backed record sink for streaming runs. When the engine runs with
// retain_records off, RunMetrics::invocations stays empty and the per-record
// CDFs of §8 can no longer be derived after the fact — this collector is the
// EngineConfig::record_sink that takes their place: it folds every finalized
// InvocationRecord into obs::LogHistogram sketches and O(1) counters at
// finalize time, so a 10M-invocation run reports latency quantiles from a
// few KB of state instead of a multi-GB record vector.
#pragma once

#include "obs/metrics_registry.h"
#include "sim/metrics.h"

namespace libra::exp {

class StreamingCollector final : public sim::InvocationRecordSink {
 public:
  StreamingCollector();

  void on_record(const sim::InvocationRecord& rec) override;

  long records() const { return records_; }
  long completed() const { return completed_; }
  long cold_starts() const { return cold_starts_; }
  /// Fraction of finalized invocations that completed (1.0 when empty).
  double goodput() const;

  /// Response-latency sketch over completed invocations (seconds).
  const obs::LogHistogram& latency() const { return latency_; }
  /// Counterfactual static-allocation latency sketch (Eq. 1 basis).
  const obs::LogHistogram& user_latency() const { return user_latency_; }

 private:
  long records_ = 0;
  long completed_ = 0;
  long cold_starts_ = 0;

  obs::LogHistogram latency_;
  obs::LogHistogram user_latency_;
};

}  // namespace libra::exp
