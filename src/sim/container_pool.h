// Warm-container tracking per worker node. OpenWhisk keeps finished
// containers paused for reuse; scheduling the same function onto the same
// node converts cold starts (container creation + dependency install) into
// warm starts. The hash-affinity behaviour of §6.3 exists precisely to
// exploit this.
//
// No lock: the real system's per-node invoker agent serves acquire and
// release from several scheduler shards and the crash-reap path, but here
// every one of those is an engine event on the single-threaded event loop
// (DESIGN.md §5d, "Which state locks").
#pragma once

#include <unordered_map>
#include <vector>

#include "sim/types.h"

namespace libra::sim {

struct ContainerPoolConfig {
  double cold_start_delay = 0.5;   // seconds to create a fresh container
  double warm_start_delay = 0.02;  // seconds to unpause a warm container
  double keep_alive = 600.0;       // idle container retention window
  int max_warm_per_function = 8;   // cap on retained paused containers
};

class ContainerPool {
 public:
  explicit ContainerPool(ContainerPoolConfig cfg = {}) : cfg_(cfg) {}
  /// Move-only, like the Node that owns it (nodes live in a std::vector).
  ContainerPool(ContainerPool&&) noexcept = default;
  ContainerPool(const ContainerPool&) = delete;
  ContainerPool& operator=(const ContainerPool&) = delete;

  struct Acquisition {
    double delay = 0.0;
    bool cold = false;
  };

  /// Takes a container for `func` at time `now`: reuses a warm one when
  /// available (and not expired), otherwise reports a cold start.
  Acquisition acquire(FunctionId func, SimTime now);

  /// Returns a container to the warm set at time `now`.
  void release(FunctionId func, SimTime now);

  /// Number of currently warm (non-expired) containers for `func`.
  int warm_count(FunctionId func, SimTime now) const;

  /// Drops every warm container (node crash: the container runtime state is
  /// gone). Start counters are cumulative and survive.
  void clear() { warm_.clear(); }

  long total_cold_starts() const { return cold_starts_; }
  long total_warm_starts() const { return warm_starts_; }

 private:
  void evict_expired(std::vector<SimTime>& stack, SimTime now) const;
  /// Amortized whole-map reclamation, at most once per keep_alive of sim
  /// time: drops expired containers AND erases empty per-function entries,
  /// so map size tracks the active working set instead of every function
  /// the node has ever run (1000 nodes x 10k functions otherwise grows
  /// without bound on long streaming runs).
  void sweep(SimTime now);

  const ContainerPoolConfig cfg_;  // immutable after construction
  SimTime last_sweep_ = 0.0;
  /// Per function: stack of pause timestamps of warm containers (LIFO reuse
  /// keeps the most recently used container hottest).
  std::unordered_map<FunctionId, std::vector<SimTime>> warm_;
  long cold_starts_ = 0;
  long warm_starts_ = 0;
};

}  // namespace libra::sim
