#include "sim/event_queue.h"

#include <cmath>
#include <stdexcept>

namespace libra::sim {

EventId EventQueue::schedule_lane(SimTime t, uint64_t lane,
                                  const Callback& fn) {
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
  const Entry e{t, (lane << 62) | next_seq_++, slot, s.gen};
  ++live_;
  if (has_front_) {
    // An entry earlier than the (live) front is earlier than every live
    // entry; the front it displaces still precedes every heap entry.
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
  return (static_cast<EventId>(s.gen) << 32) | (slot + 1);
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
  // A live front is exactly the event its slot holds.
  if (has_front_ && front_.slot == slot) has_front_ = false;
  // A heap entry stays behind; step()/prune_stale() skip it by generation.
}

void EventQueue::prune_stale() {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

SimTime EventQueue::next_time() {
  if (has_front_) return front_.time;
  prune_stale();
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                       : heap_.top().time;
}

bool EventQueue::step() {
  if (!has_front_) {
    prune_stale();
    if (heap_.empty()) return false;
    front_ = heap_.top();
    heap_.pop();
  }
  has_front_ = false;
  const Entry next = front_;
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
