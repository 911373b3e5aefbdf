// Model-based differential tests for the flat id containers of DESIGN.md
// §5l: util::IdBitset against a std::set<size_t>, and util::DenseIdMap
// against a std::map. Seeded random operation sequences drive each
// container and its model in lockstep, and every observable is compared
// after every operation. The models know nothing of words, slots, free
// lists or the sliding window, so any bookkeeping slip in those shows up as
// a mismatch.
//
// IdBitset: set and clear, inside the words and past the end (a set there
// grows the words, a clear must not invent bits), test and next from any
// position, fresh sets of random sizes. DenseIdMap: ids admitted mostly in
// ascending order and erased mostly oldest first — the engine's record
// store pattern, which makes the window slide — mixed with random erases,
// duplicate inserts, inserts below the window base (which must throw),
// and find / contains / at / erase of live, dead and never-seen ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/dense_id_map.h"
#include "util/id_bitset.h"
#include "util/rng.h"

namespace libra::util {
namespace {

constexpr int kOps = 10000;

// ------------------------------------------------------------------ IdBitset

class BitsetHarness {
 public:
  explicit BitsetHarness(uint64_t seed) : rng_(seed) {}

  /// Runs `ops` operations over fresh sets of `episode` operations each.
  /// Stops at the first mismatch.
  void run(int ops, int episode) {
    for (int op = 0; op < ops && failure_.empty(); ++op) {
      if (op % episode == 0) fresh();
      step(op);
      if (failure_.empty()) compare(op);
    }
  }

  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }
  long grew() const { return grew_; }
  long cleared_past_end() const { return cleared_past_end_; }
  long next_hits() const { return next_hits_; }

 private:
  void fresh() {
    const size_t n = static_cast<size_t>(rng_.uniform_int(0, 300));
    const bool sized = rng_.bernoulli(0.8);
    bits_ = sized ? IdBitset(n) : IdBitset();
    model_.clear();
    // Ids the set was sized for, rounded up to whole words: a set past
    // this grows the words.
    room_ = sized ? (n + 63) / 64 * 64 : 0;
    hi_ = std::max<size_t>(room_, 64);
  }

  /// An id near the populated range, past it, or far past it.
  size_t pick_id() {
    const double r = rng_.uniform();
    if (r < 0.75)
      return static_cast<size_t>(
          rng_.uniform_int(0, static_cast<int64_t>(hi_) + 8));
    if (r < 0.95)
      return hi_ + static_cast<size_t>(rng_.uniform_int(0, 200));
    return static_cast<size_t>(rng_.uniform_int(0, 4096));
  }

  void step(int op) {
    const double r = rng_.uniform();
    if (r < 0.45) {
      const size_t id = pick_id();
      if (id >= room_) {
        ++grew_;
        room_ = (id / 64 + 1) * 64;
      }
      bits_.set(id, true);
      model_.insert(id);
      hi_ = std::max(hi_, id + 1);
    } else if (r < 0.80) {
      // Clear a member half the time, otherwise any id (past the end too).
      size_t id = pick_id();
      if (!model_.empty() && rng_.bernoulli(0.5)) {
        auto it = model_.begin();
        std::advance(it, rng_.uniform_int(
                             0, static_cast<int64_t>(model_.size()) - 1));
        id = *it;
      }
      if (id >= room_) ++cleared_past_end_;
      bits_.set(id, false);
      model_.erase(id);
    } else if (r < 0.90) {
      const size_t id = pick_id();
      if (bits_.test(id) != (model_.count(id) != 0))
        fail(op, "test(" + std::to_string(id) + ")");
    } else {
      // next() from anywhere, including exactly a member, one past the last
      // member and the largest representable position.
      size_t from = pick_id();
      if (rng_.bernoulli(0.05)) from = IdBitset::npos - 1;
      if (!model_.empty() && rng_.bernoulli(0.3)) from = *model_.rbegin() + 1;
      const auto it = model_.lower_bound(from);
      const size_t want = it == model_.end() ? IdBitset::npos : *it;
      if (want != IdBitset::npos) ++next_hits_;
      if (bits_.next(from) != want)
        fail(op, "next(" + std::to_string(from) + ") = " +
                     std::to_string(bits_.next(from)) + ", model " +
                     std::to_string(want));
    }
  }

  /// The whole set through next(), and test() of every id up to two words
  /// past the largest id ever used.
  void compare(int op) {
    std::vector<size_t> walked;
    for (size_t i = bits_.next(0); i != IdBitset::npos; i = bits_.next(i + 1)) {
      walked.push_back(i);
      if (walked.size() > model_.size()) break;
    }
    if (!std::equal(walked.begin(), walked.end(), model_.begin(),
                    model_.end()))
      fail(op, "next() walk differs from the model (" +
                   std::to_string(walked.size()) + " ids walked, " +
                   std::to_string(model_.size()) + " in the model)");
    auto member = model_.begin();
    for (size_t id = 0; id < hi_ + 128 && failure_.empty(); ++id) {
      const bool want = member != model_.end() && *member == id;
      if (want) ++member;
      if (bits_.test(id) != want)
        fail(op, "test(" + std::to_string(id) + ") after the op");
    }
  }

  void fail(int op, const std::string& what) {
    if (!failure_.empty()) return;
    std::ostringstream os;
    os << "op " << op << ": " << what;
    failure_ = os.str();
  }

  Rng rng_;
  IdBitset bits_;
  std::set<size_t> model_;
  size_t room_ = 0;  // ids [0, room_) fit the words without growing
  size_t hi_ = 0;    // one past the largest id used this episode
  long grew_ = 0;
  long cleared_past_end_ = 0;
  long next_hits_ = 0;
  std::string failure_;
};

class IdBitsetModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdBitsetModel, RandomOperationsMatchTheSetModel) {
  BitsetHarness h(GetParam());
  h.run(kOps, /*episode=*/2500);
  ASSERT_TRUE(h.ok()) << h.failure();
  // The mix really grew the words, cleared past the end and found ids.
  EXPECT_GT(h.grew(), 400);
  EXPECT_GT(h.cleared_past_end(), 150);
  EXPECT_GT(h.next_hits(), 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdBitsetModel,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------- DenseIdMap

using Map = DenseIdMap<int64_t, std::string>;

/// A value long enough to live on the heap, so recycled slots reuse buffers.
std::string value_for(int64_t key, int version) {
  return "value-" + std::to_string(key) + "-" + std::to_string(version) +
         "-padded-past-the-small-string-buffer";
}

class MapHarness {
 public:
  explicit MapHarness(uint64_t seed) : rng_(seed) {}

  void run(int ops, int episode) {
    for (int op = 0; op < ops && failure_.empty(); ++op) {
      if (op % episode == 0) fresh();
      step(op);
      if (failure_.empty()) compare(op);
    }
  }

  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }
  long slides() const { return slides_; }
  long below_base_throws() const { return below_base_throws_; }
  long duplicates_refused() const { return duplicates_refused_; }
  long random_erases() const { return random_erases_; }

 private:
  void fresh() {
    map_ = Map();
    model_.clear();
    next_key_ = rng_.uniform_int(0, 50);
    base_ = map_.window_base();
  }

  /// Any id: live, dead, below the window base, or not yet admitted.
  int64_t any_key() {
    const double r = rng_.uniform();
    if (r < 0.4 && !model_.empty()) return random_live();
    if (r < 0.55 && map_.window_base() > 0)
      return rng_.uniform_int(0, map_.window_base() - 1);
    return rng_.uniform_int(std::max<int64_t>(0, next_key_ - 300),
                            next_key_ + 20);
  }

  int64_t random_live() {
    auto it = model_.begin();
    std::advance(it,
                 rng_.uniform_int(0, static_cast<int64_t>(model_.size()) - 1));
    return it->first;
  }

  void insert(int op, int64_t key) {
    const std::string v = value_for(key, ++version_);
    const bool below = key < map_.window_base();
    bool threw = false;
    bool inserted = false;
    try {
      inserted = map_.insert(key, std::string(v));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    if (below) {
      ++below_base_throws_;
      if (!threw) fail(op, "insert below the window base did not throw");
      return;
    }
    if (threw) {
      fail(op, "insert(" + std::to_string(key) + ") threw above the base");
      return;
    }
    const bool fresh_key = model_.emplace(key, v).second;
    if (!fresh_key) ++duplicates_refused_;
    if (inserted != fresh_key)
      fail(op, "insert(" + std::to_string(key) + ") returned " +
                   (inserted ? "true" : "false"));
  }

  void erase(int op, int64_t key) {
    const bool want = model_.erase(key) != 0;
    if (map_.erase(key) != want)
      fail(op, "erase(" + std::to_string(key) + ") disagrees with the model");
  }

  void step(int op) {
    const double r = rng_.uniform();
    if (r < 0.40) {
      // Admission: the next id, sometimes skipping a few.
      if (rng_.bernoulli(0.1)) next_key_ += rng_.uniform_int(1, 5);
      insert(op, next_key_++);
    } else if (r < 0.72) {
      // Retirement, mostly oldest first.
      if (model_.empty()) return;
      if (rng_.bernoulli(0.8)) {
        erase(op, model_.begin()->first);
      } else {
        ++random_erases_;
        erase(op, random_live());
      }
    } else if (r < 0.80) {
      insert(op, any_key());  // duplicate, below the base, or fresh
    } else if (r < 0.86) {
      erase(op, any_key());
    } else {
      const int64_t key = any_key();
      const auto it = model_.find(key);
      const std::string* got = map_.find(key);
      if ((got == nullptr) != (it == model_.end()) ||
          (got != nullptr && *got != it->second))
        fail(op, "find(" + std::to_string(key) + ")");
      if (map_.contains(key) != (it != model_.end()))
        fail(op, "contains(" + std::to_string(key) + ")");
      bool threw = false;
      try {
        if (std::as_const(map_).at(key) != it->second)
          fail(op, "at(" + std::to_string(key) + ")");
      } catch (const std::out_of_range&) {
        threw = true;
      }
      if (threw != (it == model_.end()))
        fail(op, "at(" + std::to_string(key) + ") threw " +
                     (threw ? "for a live id" : "nothing for a dead id"));
    }
  }

  void compare(int op) {
    if (map_.size() != model_.size() || map_.empty() != model_.empty())
      fail(op, "size " + std::to_string(map_.size()) + ", model " +
                   std::to_string(model_.size()));
    // for_each visits exactly the live entries, each once (in slot order).
    std::vector<std::pair<int64_t, std::string>> seen;
    std::as_const(map_).for_each(
        [&](int64_t k, const std::string& v) { seen.emplace_back(k, v); });
    std::sort(seen.begin(), seen.end());
    if (seen != std::vector<std::pair<int64_t, std::string>>(model_.begin(),
                                                              model_.end()))
      fail(op, "for_each saw " + std::to_string(seen.size()) +
                   " entries unlike the model's " +
                   std::to_string(model_.size()));
    for (const auto& [k, v] : model_) {
      const std::string* got = map_.find(k);
      if (got == nullptr || *got != v) {
        fail(op, "live id " + std::to_string(k) + " not found intact");
        break;
      }
    }
    // The window only slides forward, and never past a live id.
    const int64_t base = map_.window_base();
    if (base < base_) fail(op, "window base moved backwards");
    if (!model_.empty() && base > model_.begin()->first)
      fail(op, "window base " + std::to_string(base) + " passed live id " +
                   std::to_string(model_.begin()->first));
    if (base > base_) ++slides_;
    base_ = base;
    if (map_.slot_count() < map_.size())
      fail(op, "fewer slots than live entries");
  }

  void fail(int op, const std::string& what) {
    if (!failure_.empty()) return;
    std::ostringstream os;
    os << "op " << op << ": " << what;
    failure_ = os.str();
  }

  Rng rng_;
  Map map_;
  std::map<int64_t, std::string> model_;
  int64_t next_key_ = 0;
  int64_t base_ = 0;
  int version_ = 0;
  long slides_ = 0;
  long below_base_throws_ = 0;
  long duplicates_refused_ = 0;
  long random_erases_ = 0;
  std::string failure_;
};

class DenseIdMapModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseIdMapModel, RandomOperationsMatchTheMapModel) {
  // Long episodes: the window slides only once more than 1024 leading ids
  // are dead.
  MapHarness h(GetParam());
  h.run(kOps, /*episode=*/5000);
  ASSERT_TRUE(h.ok()) << h.failure();
  // The mix really slid the window, refused ids below it and duplicates,
  // and erased out of order.
  EXPECT_GE(h.slides(), 2);
  EXPECT_GT(h.below_base_throws(), 30);
  EXPECT_GT(h.duplicates_refused(), 300);
  EXPECT_GT(h.random_erases(), 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseIdMapModel,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace libra::util
