// Pool-status snapshots piggybacked on invoker health pings (§6.4). The
// controller-side schedulers never query pools synchronously; they compute
// demand coverage from these (slightly stale) snapshots, exactly like the
// paper's "piggyback trick".
#pragma once

#include <vector>

#include "sim/types.h"
#include "util/id_bitset.h"

namespace libra::core {

/// One tracked idle-resource collection inside a node's harvest pool.
struct PoolEntrySnapshot {
  sim::Resources volume;      // currently idle (un-borrowed) volume
  sim::SimTime est_expiry;    // estimated completion of the source invocation
};

struct PoolStatus {
  std::vector<PoolEntrySnapshot> entries;
  sim::SimTime taken_at = 0.0;  // snapshot (ping) time; exposes staleness
};

/// Anything that can answer "what does node n's harvest pool look like?" —
/// implemented by LibraPolicy from its piggybacked snapshots.
class PoolStatusProvider {
 public:
  virtual ~PoolStatusProvider() = default;
  /// Returns a reference into provider-owned storage (valid until the next
  /// snapshot refresh for `node`) — the scheduling hot path reads one status
  /// per candidate node per decision and must not copy the entries vector.
  virtual const PoolStatus& pool_status(sim::NodeId node) const = 0;
  /// The node ids whose status holds at least one entry, kept beside the
  /// statuses (valid as long as they are), or nullptr when the provider
  /// keeps no such set: every node then counts as occupied, and a coverage
  /// pick scores every feasible node (DESIGN.md §5l).
  virtual const util::IdBitset* occupied_views() const { return nullptr; }
};

}  // namespace libra::core
