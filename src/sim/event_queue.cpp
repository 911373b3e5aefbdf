#include "sim/event_queue.h"

#include <cmath>
#include <stdexcept>

namespace libra::sim {

EventId EventQueue::schedule_lane(SimTime t, uint64_t lane, Callback fn) {
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
  s.fn = std::move(fn);
  heap_.push(Entry{t, (lane << 62) | next_seq_++, slot, s.gen});
  ++live_;
  return (static_cast<EventId>(s.gen) << 32) | (slot + 1);
}

void EventQueue::release_slot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  ++s.gen;
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
  // The heap entry stays behind; step()/prune_stale() skip it by generation.
}

void EventQueue::prune_stale() {
  while (!heap_.empty() && stale(heap_.top())) heap_.pop();
}

SimTime EventQueue::next_time() {
  prune_stale();
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                       : heap_.top().time;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    heap_.pop();
    if (stale(top)) continue;
    Callback fn = std::move(slots_[top.slot].fn);
    release_slot(top.slot);
    --live_;
    now_ = top.time;
    fn();
    return true;
  }
  return false;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(SimTime t) {
  for (;;) {
    prune_stale();
    if (heap_.empty() || heap_.top().time > t) break;
    step();
  }
  if (t > now_) now_ = t;
}

}  // namespace libra::sim
