// Flat, index-addressed replacement for std::unordered_map<Id, V> on the
// simulator hot paths (DESIGN.md §5l). Values live in a contiguous slot slab;
// a sliding dense index maps ids to slots, and erased slots are recycled
// through a free list — the slot/free-list idiom EventQueue uses for event
// handles, applied to keyed records. Lookups are two array loads; no
// hashing, no per-node allocation.
//
// Contracts mirrored from the unordered_map it replaces:
//   * find() returns nullptr for unknown AND recycled ids, so epoch-guarded
//     continuations that still hold a dead id resolve to "stale, ignore".
//   * insert() refuses duplicate ids (returns false; callers throw).
//   * at() throws std::out_of_range, like unordered_map::at.
//   * Erased slots keep their Value object alive for reuse: the next insert
//     move-assigns into it, recycling any heap buffers the record owns (the
//     free-list node-reuse win of the old extract()/insert(node) path).
//
// Pointer stability: references returned by find()/at() are invalidated by
// the next insert (the slab may reallocate), NOT by erase. The engine only
// holds references within one event callback, and admissions happen between
// queue steps, so this is safe there; new callers must respect it.
//
// The id index slides: ids are admitted in ascending order and recycled
// roughly in arrival order, so once a dense prefix of ids is dead the index
// drops it and re-bases (streaming runs stay O(live) in the slab and
// amortized O(live) in the index, not O(total ids ever seen)).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace libra::util {

template <typename Key, typename Value>
class DenseIdMap {
 public:
  /// Inserts `key`; returns false (and leaves the map unchanged) when the
  /// key is already live. Keys must be >= the current window base — ids
  /// below an already-recycled dense prefix cannot come back.
  bool insert(Key key, Value&& value) {
    if (key < offset_)
      throw std::invalid_argument(
          "DenseIdMap: id below the recycled window base");
    const size_t pos = static_cast<size_t>(key - offset_);
    if (pos < index_.size() && index_[pos] != 0) return false;
    // The new id leads the live ones when all are dead or it comes first;
    // a window that missed it would slide past it, or never slide at all.
    if (dead_prefix_ == index_.size() || pos < dead_prefix_) dead_prefix_ = pos;
    if (pos >= index_.size()) index_.resize(pos + 1, 0);
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].key = key;
      slots_[slot].value = std::move(value);
      slots_[slot].live = true;
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(Slot{key, true, std::move(value)});
    }
    index_[pos] = slot + 1;
    ++live_;
    return true;
  }

  Value* find(Key key) {
    const uint32_t s = slot_of(key);
    return s == 0 ? nullptr : &slots_[s - 1].value;
  }
  const Value* find(Key key) const {
    const uint32_t s = slot_of(key);
    return s == 0 ? nullptr : &slots_[s - 1].value;
  }
  bool contains(Key key) const { return slot_of(key) != 0; }

  Value& at(Key key) {
    Value* v = find(key);
    if (!v) throw std::out_of_range("DenseIdMap: unknown id");
    return *v;
  }
  const Value& at(Key key) const {
    const Value* v = find(key);
    if (!v) throw std::out_of_range("DenseIdMap: unknown id");
    return *v;
  }

  /// Recycles the key's slot into the free list. Returns false when the key
  /// is not live. The slot's Value object survives for buffer reuse.
  bool erase(Key key) {
    if (key < offset_) return false;
    const size_t pos = static_cast<size_t>(key - offset_);
    if (pos >= index_.size() || index_[pos] == 0) return false;
    const uint32_t slot = index_[pos] - 1;
    slots_[slot].live = false;
    free_.push_back(slot);
    index_[pos] = 0;
    --live_;
    if (pos == dead_prefix_) advance_window();
    return true;
  }

  /// Calls f(key, value) for every live entry, in SLOT order — an arbitrary
  /// but deterministic order. Callers that feed order-sensitive computations
  /// must collect ids and sort, exactly as they did for unordered_map.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_)
      if (s.live) f(s.key, s.value);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_)
      if (s.live) f(s.key, s.value);
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  /// Slab capacity actually allocated (live + recycled slots).
  size_t slot_count() const { return slots_.size(); }
  /// Smallest id the sliding index can still address.
  Key window_base() const { return offset_; }

 private:
  struct Slot {
    Key key{};
    bool live = false;
    Value value{};
  };

  uint32_t slot_of(Key key) const {
    if (key < offset_) return 0;
    const size_t pos = static_cast<size_t>(key - offset_);
    if (pos >= index_.size()) return 0;
    return index_[pos];
  }

  /// Advances the window past a dead dense prefix; re-bases the index once
  /// the prefix dominates, so streaming runs don't accrete O(total ids).
  void advance_window() {
    while (dead_prefix_ < index_.size() && index_[dead_prefix_] == 0)
      ++dead_prefix_;
    if (dead_prefix_ > 1024 && dead_prefix_ * 2 > index_.size()) {
      index_.erase(index_.begin(),
                   index_.begin() + static_cast<ptrdiff_t>(dead_prefix_));
      offset_ += static_cast<Key>(dead_prefix_);
      dead_prefix_ = 0;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;   // recycled slot indices (LIFO)
  std::vector<uint32_t> index_;  // (key - offset_) -> slot + 1; 0 = absent
  Key offset_ = 0;               // id of index_[0]
  size_t dead_prefix_ = 0;       // leading absent entries in index_
  size_t live_ = 0;
};

}  // namespace libra::util
