#include "core/coverage.h"

#include <algorithm>
#include <array>
#include <vector>

namespace libra::core {
namespace {

/// Integral over [now, now+duration] of min(sum of live volumes, demand),
/// divided by demand * duration. Piecewise-constant sweep over expiries.
double axis_coverage(const PoolStatus& status, sim::SimTime now,
                     double demand, double duration, bool use_cpu) {
  if (demand <= 0.0) return 1.0;
  if (duration <= 0.0) return 0.0;

  // Collect (expiry, volume) of live entries for the axis, in entry order.
  // A view rarely holds more than a few dozen entries, so they sort in a
  // stack buffer; only a larger view pays for a heap one. The sequence and
  // the std::sort are the same either way, so equal expiries keep their
  // order and the sums below their bits.
  struct Item {
    sim::SimTime expiry;
    double volume;
  };
  constexpr size_t kStackItems = 128;
  std::array<Item, kStackItems> stack_items;
  std::vector<Item> heap_items;
  Item* items = stack_items.data();
  if (status.entries.size() > kStackItems) {
    heap_items.resize(status.entries.size());
    items = heap_items.data();
  }
  size_t count = 0;
  double total = 0.0;
  for (const auto& e : status.entries) {
    const double v = use_cpu ? e.volume.cpu : e.volume.mem;
    if (v <= 0.0 || e.est_expiry <= now) continue;
    items[count++] = {e.est_expiry, v};
    total += v;
  }
  if (count == 0) return 0.0;
  std::sort(items, items + count,
            [](const Item& a, const Item& b) { return a.expiry < b.expiry; });

  const sim::SimTime window_end = now + duration;
  double integral = 0.0;
  sim::SimTime t = now;
  size_t i = 0;
  while (t < window_end) {
    // Drop entries that expired at or before t.
    while (i < count && items[i].expiry <= t) {
      total -= items[i].volume;
      ++i;
    }
    if (total <= 0.0) break;
    const sim::SimTime seg_end =
        (i < count) ? std::min(items[i].expiry, window_end) : window_end;
    integral += std::min(total, demand) * (seg_end - t);
    t = seg_end;
  }
  return integral / (demand * duration);
}

}  // namespace

CoverageResult demand_coverage(const PoolStatus& status, sim::SimTime now,
                               const sim::Resources& extra_demand,
                               double duration) {
  CoverageResult r;
  r.cpu = axis_coverage(status, now, extra_demand.cpu, duration,
                        /*use_cpu=*/true);
  r.mem = axis_coverage(status, now, extra_demand.mem, duration,
                        /*use_cpu=*/false);
  return r;
}

}  // namespace libra::core
