// Discrete-event core: a time-ordered queue of callbacks with stable FIFO
// tie-breaking and O(log n) lazy cancellation. Completion events are
// re-scheduled whenever an invocation's allocation changes (docker-update in
// the real system), so cancellation is on the hot path.
//
// Storage is slot-based with a free list: a fired or cancelled event's slot
// is recycled for the next schedule(), so live memory tracks the number of
// PENDING events — the property the planet-scale streaming runs rely on.
// Handles pack a per-slot generation so a stale EventId (already fired,
// cancelled, or its slot reused) is always recognized and cancel() stays a
// safe no-op.
//
// An event pays only for what it changes (DESIGN.md §5h, "Free lists"):
//  * Inline closures. A callback's capture is copied into a fixed buffer in
//    its slot. A static_assert requires it to be trivially copyable and to
//    fit, so scheduling never allocates. A payload that does not fit lives
//    with its owner and the event captures an index into it.
//  * The front slot. The earliest pending entry is held outside the binary
//    heap. An event scheduled ahead of everything pending goes there and is
//    dispatched next without touching the heap; the entry it displaces is
//    pushed. Dispatch takes the front when it holds one, else the heap's
//    top: either way the least live (time, lane, seq) key, which is unique,
//    so the dispatch order is the heap-only order by construction.
//  * FIFO lanes. A timer that always re-arms a fixed delay after now()
//    (the safeguard monitor, the health pings) is scheduled into its own
//    lane: now() never goes backwards, so the lane's entries arrive already
//    in key order, and a schedule appends instead of pushing on the heap.
//    The earliest live lane head is cached; dispatch takes the lesser of it
//    and the front/heap top — again the least live key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/types.h"

namespace libra::sim {

/// Opaque handle: (slot generation << 32) | (slot index + 1); never 0.
using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// A `void()` callable whose capture lives inline: no heap, nothing to
  /// destroy, copied as bytes. Converts implicitly from any trivially
  /// copyable callable of at most kCaptureBytes — the engine's largest
  /// capture is `[this, id, epoch]`.
  class Callback {
   public:
    static constexpr size_t kCaptureBytes = 24;
    static constexpr size_t kCaptureAlign = alignof(uint64_t);

    Callback() = default;
    template <class F, class = std::enable_if_t<
                           !std::is_same_v<std::decay_t<F>, Callback>>>
    Callback(F fn) : invoke_(&invoke<F>) {
      static_assert(std::is_trivially_copyable_v<F>,
                    "event captures must be trivially copyable: capture "
                    "ids and pointers, and keep payloads with their owner");
      static_assert(sizeof(F) <= kCaptureBytes,
                    "event capture larger than Callback::kCaptureBytes");
      static_assert(alignof(F) <= kCaptureAlign,
                    "event capture over-aligned for Callback's buffer");
      ::new (static_cast<void*>(buf_)) F(fn);
    }

    void operator()() const { invoke_(buf_); }

   private:
    template <class F>
    static void invoke(const unsigned char* buf) {
      (*std::launder(reinterpret_cast<const F*>(buf)))();
    }

    alignas(kCaptureAlign) unsigned char buf_[kCaptureBytes]{};
    void (*invoke_)(const unsigned char*) = nullptr;
  };

  /// Current simulated time (time of the last dispatched event).
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now). Returns a handle usable
  /// with cancel(). Throws std::invalid_argument when `t` is in the past or
  /// not finite (NaN, ±inf), here and in the two forms below.
  EventId schedule(SimTime t, const Callback& fn) {
    return schedule_keyed(t, kNormalLane, fn);
  }

  /// Schedules `fn` after a relative delay.
  EventId schedule_after(SimTime delay, const Callback& fn) {
    return schedule(now_ + delay, fn);
  }

  /// Schedules an ARRIVAL: at equal timestamps it dispatches before every
  /// normally scheduled event, regardless of scheduling order. The engine's
  /// just-in-time admission uses this to keep the event order the pinned
  /// golden digests were captured under, when every trace arrival was
  /// scheduled ahead of every dynamic event and so won every same-time tie.
  EventId schedule_arrival(SimTime t, const Callback& fn) {
    return schedule_keyed(t, kArrivalLane, fn);
  }

  /// Handle of a FIFO lane (add_fifo_lane()).
  using FifoLane = uint32_t;

  /// Opens a FIFO lane for a timer whose every schedule lands a fixed delay
  /// after now(). Its events keep the order schedule() would give them;
  /// the lane only saves them the heap.
  FifoLane add_fifo_lane();

  /// Schedules `fn` at absolute time `t` exactly as schedule() would — same
  /// checks, same throws, same dispatch order — but appends it to `lane`
  /// when `t` is no earlier than the lane's last entry. An earlier `t`
  /// falls back to the heap. Throws std::out_of_range on an unknown lane.
  EventId schedule_fifo(FifoLane lane, SimTime t, const Callback& fn);

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventId id);

  /// Dispatches the next event. Returns false when the queue is empty.
  bool step();

  /// Dispatches events until the queue is empty.
  void run();

  /// Dispatches events with time <= t, then advances now to t.
  void run_until(SimTime t);

  /// Time of the next pending event; +infinity when the queue is empty.
  /// Prunes cancelled entries off the top of the heap, hence non-const.
  SimTime next_time();

  /// Number of pending (non-cancelled) events.
  size_t pending() const { return live_; }

  bool empty() const { return live_ == 0; }

  /// Slots ever allocated (live + free-listed) — the high-water mark of
  /// simultaneously pending events, for memory-flatness assertions.
  size_t slot_capacity() const { return slots_.size(); }

 private:
  // Lane is folded into the high bits of the order key so the comparator
  // stays a two-field compare: (time, then lane-then-seq).
  static constexpr uint64_t kArrivalLane = 0;
  static constexpr uint64_t kNormalLane = 1;

  struct Slot {
    Callback fn;
    uint32_t gen = 0;  // bumped on fire/cancel; stale handles never match
  };
  struct Entry {
    SimTime time;
    uint64_t order;  // (lane << 62) | seq — FIFO tie-break within a lane
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();
  /// lane_min_ while no lane holds a live entry: later than every entry.
  static constexpr Entry kNoLaneEntry{
      std::numeric_limits<SimTime>::infinity(),
      std::numeric_limits<uint64_t>::max(), kNoSlot, 0};

  /// One FIFO lane: a ring of entries in key order. Cancelled entries stay
  /// until they reach the head, where refresh_lane_min() drops them.
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    const Entry& front() const { return buf_[head_]; }
    const Entry& back() const {
      return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
    }
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
    void push_back(const Entry& e);

   private:
    std::vector<Entry> buf_;  // capacity 0 or a power of two
    size_t head_ = 0;
    size_t size_ = 0;
  };

  EventId schedule_keyed(SimTime t, uint64_t lane, const Callback& fn);
  /// Validates `t`, arms a slot with `fn` and returns its keyed entry.
  Entry arm(SimTime t, uint64_t lane, const Callback& fn);
  /// Places a new entry in the front slot or on the heap.
  void place_entry(const Entry& e);
  static EventId handle(const Entry& e) {
    return (static_cast<EventId>(e.gen) << 32) | (e.slot + 1);
  }
  bool stale(const Entry& e) const { return slots_[e.slot].gen != e.gen; }
  /// Disarms a slot and returns it to the free list.
  void release_slot(uint32_t slot);
  /// Pops cancelled/stale entries off the top of the heap.
  void prune_stale();
  /// Drops cancelled heads from every lane and re-caches the least head.
  void refresh_lane_min();

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
  /// When has_front_: a live entry earlier than every live heap entry.
  /// cancel() empties it, so it never holds a stale entry.
  Entry front_{};
  bool has_front_ = false;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::vector<Ring> lanes_;
  /// The least live entry over all lanes, and the lane whose head it is;
  /// kNoLaneEntry when no lane holds a live entry. Every lane entry, live
  /// or cancelled, is at or after it, so a push can only lower it by
  /// landing in an empty lane; cancel() re-caches it when it cancels it.
  Entry lane_min_ = kNoLaneEntry;
  FifoLane lane_min_lane_ = 0;
};

}  // namespace libra::sim
