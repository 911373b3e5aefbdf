// Fundamental types of the serverless-cluster simulator: simulated time,
// entity ids, and the two-dimensional (CPU, memory) resource vector that the
// whole harvesting framework manipulates. Libra decouples CPU and memory
// (§7 "Frontend"), so Resources keeps the two axes independent everywhere.
#pragma once

#include <cstdint>
#include <string>

namespace libra::sim {

/// Simulated wall-clock time in seconds.
using SimTime = double;

using NodeId = int;
using FunctionId = int;
using InvocationId = int64_t;
using ShardId = int;

inline constexpr NodeId kNoNode = -1;

/// A (CPU cores, memory MB) pair. CPU is fractional cores; memory is MB.
struct Resources {
  double cpu = 0.0;
  double mem = 0.0;

  constexpr Resources() = default;
  constexpr Resources(double cpu_cores, double mem_mb)
      : cpu(cpu_cores), mem(mem_mb) {}

  Resources operator+(const Resources& o) const {
    return {cpu + o.cpu, mem + o.mem};
  }
  Resources operator-(const Resources& o) const {
    return {cpu - o.cpu, mem - o.mem};
  }
  Resources& operator+=(const Resources& o) {
    cpu += o.cpu;
    mem += o.mem;
    return *this;
  }
  Resources& operator-=(const Resources& o) {
    cpu -= o.cpu;
    mem -= o.mem;
    return *this;
  }
  Resources operator*(double k) const { return {cpu * k, mem * k}; }
  Resources operator/(double k) const { return {cpu / k, mem / k}; }

  bool operator==(const Resources& o) const = default;

  /// True when both axes fit inside `o` (with a small epsilon for float
  /// accumulation noise in node bookkeeping).
  bool fits_in(const Resources& o, double eps = 1e-9) const {
    return cpu <= o.cpu + eps && mem <= o.mem + eps;
  }

  bool is_zero(double eps = 1e-12) const {
    return cpu <= eps && mem <= eps;
  }

  /// Element-wise clamp to be >= 0.
  Resources clamped_non_negative() const {
    return {cpu < 0 ? 0.0 : cpu, mem < 0 ? 0.0 : mem};
  }

  /// Element-wise minimum.
  static Resources min(const Resources& a, const Resources& b) {
    return {a.cpu < b.cpu ? a.cpu : b.cpu, a.mem < b.mem ? a.mem : b.mem};
  }
  /// Element-wise maximum.
  static Resources max(const Resources& a, const Resources& b) {
    return {a.cpu > b.cpu ? a.cpu : b.cpu, a.mem > b.mem ? a.mem : b.mem};
  }

  std::string to_string() const;
};

/// Opaque description of one invocation's input. `size` is the only feature
/// providers may inspect (§4: no peeking at content); `content_seed`
/// deterministically drives content-dependent behaviour in function models.
struct InputSpec {
  double size = 0.0;
  uint64_t content_seed = 0;
};

}  // namespace libra::sim
