#include "exp/streaming_collector.h"

namespace libra::exp {

namespace {
// Latencies are seconds; sub-microsecond values are measurement noise, so
// the shared floor keeps every sketch's relative error bounded by the
// growth factor from 1us upward.
obs::LogHistogram::Options sketch_options() {
  obs::LogHistogram::Options opt;
  opt.min_positive = 1e-6;
  return opt;
}
}  // namespace

StreamingCollector::StreamingCollector()
    : latency_(sketch_options()), user_latency_(sketch_options()) {}

void StreamingCollector::on_record(const sim::InvocationRecord& rec) {
  ++records_;
  if (rec.cold_start) ++cold_starts_;
  if (!rec.completed) return;
  ++completed_;
  latency_.record(rec.response_latency);
  user_latency_.record(rec.user_latency);
}

double StreamingCollector::goodput() const {
  if (records_ == 0) return 1.0;
  return static_cast<double>(completed_) / static_cast<double>(records_);
}

}  // namespace libra::exp
