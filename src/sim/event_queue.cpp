#include "sim/event_queue.h"

#include <cmath>
#include <stdexcept>

namespace libra::sim {

// Forced inline, as is place_entry() in effect: schedule() stays one call,
// as it was before schedule_fifo() shared these two.
[[gnu::always_inline]] inline EventQueue::Entry EventQueue::arm(
    SimTime t, uint64_t lane, const Callback& fn) {
  // A NaN time passes every ordered comparison below and would dispatch
  // before every finite event, setting now() to NaN; +inf would never come.
  if (!std::isfinite(t))
    throw std::invalid_argument("EventQueue: scheduling at a non-finite time");
  if (t < now_ - 1e-9)
    throw std::invalid_argument("EventQueue: scheduling into the past");
  if (t < now_) t = now_;  // absorb float noise
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = fn;
  ++live_;
  return Entry{t, (lane << 62) | next_seq_++, slot, s.gen};
}

inline void EventQueue::place_entry(const Entry& e) {
  if (has_front_) {
    // An entry earlier than the (live) front is earlier than every live
    // heap entry; the front it displaces still precedes every heap entry.
    if (Later{}(front_, e)) {
      heap_.push(front_);
      front_ = e;
    } else {
      heap_.push(e);
    }
  } else {
    prune_stale();
    if (heap_.empty() || Later{}(heap_.top(), e)) {
      front_ = e;
      has_front_ = true;
    } else {
      heap_.push(e);
    }
  }
}

EventId EventQueue::schedule_keyed(SimTime t, uint64_t lane,
                                   const Callback& fn) {
  const Entry e = arm(t, lane, fn);
  place_entry(e);
  return handle(e);
}

EventQueue::FifoLane EventQueue::add_fifo_lane() {
  lanes_.emplace_back();
  return static_cast<FifoLane>(lanes_.size() - 1);
}

EventId EventQueue::schedule_fifo(FifoLane lane, SimTime t,
                                  const Callback& fn) {
  if (lane >= lanes_.size())
    throw std::out_of_range("EventQueue: unknown FIFO lane");
  const Entry e = arm(t, kNormalLane, fn);
  Ring& ring = lanes_[lane];
  // Its seq is the largest yet, so any time no earlier than the tail's
  // keeps the ring in key order.
  if (!ring.empty() && e.time < ring.back().time) {
    place_entry(e);
    return handle(e);
  }
  ring.push_back(e);
  if (Later{}(lane_min_, e)) {
    lane_min_ = e;
    lane_min_lane_ = lane;
  }
  return handle(e);
}

void EventQueue::Ring::push_back(const Entry& e) {
  if (size_ == buf_.size()) {
    std::vector<Entry> grown(buf_.empty() ? 8 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i)
      grown[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_.swap(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = e;
  ++size_;
}

void EventQueue::release_slot(uint32_t slot) {
  ++slots_[slot].gen;
  free_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto slot = static_cast<uint32_t>((id & 0xffffffffu) - 1);
  if (slot >= slots_.size()) return;
  if (slots_[slot].gen != static_cast<uint32_t>(id >> 32))
    return;  // already fired or cancelled (possibly reused since)
  release_slot(slot);
  --live_;
  // A live front is exactly the event its slot holds, and so is a live
  // lane_min_.
  if (has_front_ && front_.slot == slot) has_front_ = false;
  if (lane_min_.slot == slot) refresh_lane_min();
  // Any other heap or lane entry stays behind; step(), prune_stale() and
  // refresh_lane_min() skip it by generation.
}

void EventQueue::prune_stale() {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

void EventQueue::refresh_lane_min() {
  lane_min_ = kNoLaneEntry;
  for (FifoLane i = 0; i < lanes_.size(); ++i) {
    Ring& ring = lanes_[i];
    while (!ring.empty() && stale(ring.front())) ring.pop_front();
    if (!ring.empty() && Later{}(lane_min_, ring.front())) {
      lane_min_ = ring.front();
      lane_min_lane_ = i;
    }
  }
}

SimTime EventQueue::next_time() {
  if (!has_front_) prune_stale();
  const Entry* main =
      has_front_ ? &front_ : (heap_.empty() ? nullptr : &heap_.top());
  // By key, not by time alone: -0.0 and 0.0 tie, and the least key's own
  // time is the one step() will set now() to.
  if (main && !Later{}(*main, lane_min_)) return main->time;
  return lane_min_.time;  // +infinity when the queue is empty
}

bool EventQueue::step() {
  if (!has_front_) {
    prune_stale();
    if (!heap_.empty()) {
      front_ = heap_.top();
      heap_.pop();
      has_front_ = true;
    }
  }
  Entry next;
  if (has_front_ && !Later{}(front_, lane_min_)) {
    next = front_;
    has_front_ = false;
  } else if (lane_min_.slot != kNoSlot) {
    // A front left in place still precedes every heap entry.
    next = lane_min_;
    lanes_[lane_min_lane_].pop_front();
    refresh_lane_min();
  } else {
    return false;
  }
  // Copied out first: the callback may schedule into this very slot.
  const Callback fn = slots_[next.slot].fn;
  release_slot(next.slot);
  --live_;
  now_ = next.time;
  fn();
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(SimTime t) {
  while (live_ > 0 && !(next_time() > t)) step();
  if (t > now_) now_ = t;
}

}  // namespace libra::sim
