// Configuration of the observability subsystem (src/obs). Mirrors the
// InvariantAuditorConfig idiom: a small plain struct with a series sampling
// rate and a trace-event cap so big traces can dial the cost down. There is
// no off switch: a session records everything (spans, pool events and
// policy events), and a run without observability passes no session.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace libra::obs {

struct ObsConfig {
  /// Time-series samples (pool depth, cluster gauges) are taken on every
  /// n-th opportunity; 1 = every one. Raise for big traces.
  int series_every_n = 1;
  /// Hard cap on recorded trace events; excess is counted, not stored.
  size_t max_trace_events = size_t{1} << 20;
  /// When non-empty, trace events stream to this file as newline-delimited
  /// JSON instead of being buffered in memory — runs are then not bounded by
  /// max_trace_events (the in-memory Chrome-trace export stays empty).
  std::string ndjson_path;

  void validate() const {
    if (series_every_n < 1)
      throw std::invalid_argument("ObsConfig: series_every_n must be >= 1");
    if (max_trace_events == 0)
      throw std::invalid_argument("ObsConfig: max_trace_events must be > 0");
  }
};

}  // namespace libra::obs
