// DenseIdMap unit tests (DESIGN.md §5l): the flat slot-slab store behind the
// engine's invocation records. Covers the unordered_map contracts it mirrors
// (duplicate refusal, at() throwing, find() on dead ids), slot recycling with
// value-buffer reuse, and the sliding window that keeps streaming runs
// O(live) instead of O(total ids).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/dense_id_map.h"

namespace libra::util {
namespace {

using Map = DenseIdMap<int64_t, std::string>;

TEST(DenseIdMap, InsertFindEraseRoundTrip) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.insert(7, "seven"));
  EXPECT_TRUE(m.insert(9, "nine"));
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), "seven");
  EXPECT_EQ(m.at(9), "nine");
  EXPECT_TRUE(m.contains(7));
  EXPECT_FALSE(m.contains(8));
  EXPECT_EQ(m.find(8), nullptr);

  EXPECT_TRUE(m.erase(7));
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(m.find(7), nullptr) << "recycled ids must read as absent";
  EXPECT_FALSE(m.erase(7)) << "double-erase must be a no-op";
}

TEST(DenseIdMap, DuplicateInsertRefusedAndAtThrows) {
  Map m;
  EXPECT_TRUE(m.insert(3, "a"));
  EXPECT_FALSE(m.insert(3, "b"));
  EXPECT_EQ(m.at(3), "a") << "failed insert must leave the map unchanged";
  EXPECT_THROW(m.at(4), std::out_of_range);
  const Map& cm = m;
  EXPECT_THROW(cm.at(4), std::out_of_range);
}

TEST(DenseIdMap, ErasedSlotIsRecycledLifoWithValueReuse) {
  Map m;
  EXPECT_TRUE(m.insert(0, "zero"));
  EXPECT_TRUE(m.insert(1, "one"));
  EXPECT_TRUE(m.insert(2, "two"));
  EXPECT_EQ(m.slot_count(), 3u);

  // Free the middle slot; the next insert must reuse it, not grow the slab.
  EXPECT_TRUE(m.erase(1));
  EXPECT_TRUE(m.insert(5, "five"));
  EXPECT_EQ(m.slot_count(), 3u);
  EXPECT_EQ(m.at(5), "five");
  EXPECT_EQ(m.at(0), "zero");
  EXPECT_EQ(m.at(2), "two");
}

TEST(DenseIdMap, ForEachVisitsExactlyTheLiveEntries) {
  Map m;
  for (int64_t id = 0; id < 8; ++id)
    EXPECT_TRUE(m.insert(id, std::to_string(id)));
  for (int64_t id = 0; id < 8; id += 2) EXPECT_TRUE(m.erase(id));

  std::vector<int64_t> seen;
  m.for_each([&seen](int64_t id, const std::string& v) {
    EXPECT_EQ(v, std::to_string(id));
    seen.push_back(id);
  });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3, 5, 7}));
}

TEST(DenseIdMap, WindowSlidesPastDeadPrefixAndRefusesRebasedIds) {
  Map m;
  // Stream 3000 ids through, erasing in arrival order — the dense dead
  // prefix crosses the 1024 threshold and the index re-bases.
  for (int64_t id = 0; id < 3000; ++id) {
    EXPECT_TRUE(m.insert(id, "v"));
    EXPECT_TRUE(m.erase(id));
  }
  EXPECT_GT(m.window_base(), 0) << "dead prefix should have been dropped";
  EXPECT_TRUE(m.empty());
  // Slab stayed O(live), not O(total ids ever seen).
  EXPECT_LE(m.slot_count(), 2u);

  // Ids below the recycled window base can never come back.
  EXPECT_THROW(m.insert(0, "ghost"), std::invalid_argument);
  EXPECT_FALSE(m.contains(0));
  EXPECT_FALSE(m.erase(0));
  EXPECT_EQ(m.find(0), nullptr);

  // The map still works above the base.
  const int64_t next = 3000;
  EXPECT_TRUE(m.insert(next, "fresh"));
  EXPECT_EQ(m.at(next), "fresh");

  // A stream whose first id is above the base slides too.
  Map late;
  for (int64_t id = 7; id < 3007; ++id) {
    EXPECT_TRUE(late.insert(id, "v"));
    EXPECT_TRUE(late.erase(id));
  }
  EXPECT_GT(late.window_base(), 7);

  // An id put back inside the dead prefix is live: no later slide drops it.
  Map back;
  for (int64_t id = 0; id < 2000; ++id) EXPECT_TRUE(back.insert(id, "v"));
  for (int64_t id = 0; id < 1500; ++id) EXPECT_TRUE(back.erase(id));
  const int64_t base = back.window_base();
  ASSERT_GT(base, 0);
  EXPECT_TRUE(back.insert(base + 100, "back"));
  for (int64_t id = 2000; id < 4000; ++id) EXPECT_TRUE(back.insert(id, "v"));
  for (int64_t id = 1500; id < 4000; ++id) EXPECT_TRUE(back.erase(id));
  ASSERT_NE(back.find(base + 100), nullptr);
  EXPECT_EQ(back.at(base + 100), "back");
}

TEST(DenseIdMap, InterleavedChurnKeepsSlabBoundedByPeakLive) {
  Map m;
  // 64 in flight at all times over 10k ids: slab must track the in-flight
  // bound, which is what the engine's streaming runs rely on.
  constexpr int64_t kInFlight = 64;
  for (int64_t id = 0; id < 10000; ++id) {
    EXPECT_TRUE(m.insert(id, "r"));
    if (id >= kInFlight) {
      EXPECT_TRUE(m.erase(id - kInFlight));
    }
  }
  EXPECT_EQ(m.size(), static_cast<size_t>(kInFlight));
  EXPECT_LE(m.slot_count(), static_cast<size_t>(kInFlight) + 1);
}

}  // namespace
}  // namespace libra::util
