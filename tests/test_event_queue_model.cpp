// Model-based differential test for sim::EventQueue. Seeded random
// operation sequences drive the queue and a trivially correct model — a
// std::set of pending events keyed by (time, lane, seq) — in lockstep, and
// every observable is compared after every operation. The model knows
// nothing of the heap, the front slot or the free list, so any reordering
// those cause shows up as a dispatch-order mismatch.
//
// The operations: schedule, schedule_arrival and schedule_after on a 0.25 s
// grid (so same-time ties are common), at now(), at now() - 5e-10 (absorbed
// float noise), at -0.0, and at NaN, ±inf and past times (which must
// throw); cancel of live, fired, cancelled and never-issued handles; step,
// run_until and next_time; and callbacks that schedule and cancel further
// events while they run.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace libra::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kGrid = 0.25;

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

/// One pending event of the model. Ordered by time, then lane (arrivals
/// first), then scheduling order; -0.0 and 0.0 tie, as in the queue.
struct ModelEvent {
  double time;
  int lane;  // 0 = arrival, 1 = normal
  uint64_t seq;
  int label;
  EventId id;
};
struct ModelOrder {
  bool operator()(const ModelEvent& a, const ModelEvent& b) const {
    if (a.time < b.time) return true;
    if (b.time < a.time) return false;
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.seq < b.seq;
  }
};

class Harness {
 public:
  Harness(uint64_t seed, bool probe_next_time)
      : rng_(seed), probe_next_time_(probe_next_time) {}
  // Queued callbacks hold `this`.
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Runs `ops` operations over fresh queues of `episode` operations each;
  /// every episode ends with run(). Stops at the first mismatch.
  void run(int ops, int episode) {
    for (int done = 0; done < ops && ok(); done += episode) {
      reset();
      for (int i = 0; i < episode && ok(); ++i) {
        ++op_;
        random_op();
        check("after op");
      }
      where_ = "run";
      q_->run();
      expect(pending_.empty(), "run() left model events pending");
      check("after run");
    }
  }

  bool ok() const { return failure_.empty(); }
  const std::string& failure() const { return failure_; }
  long dispatched() const { return dispatched_; }
  long threw() const { return threw_; }
  long cancels_hit() const { return cancels_hit_; }

 private:
  void reset() {
    q_ = std::make_unique<EventQueue>();
    pending_.clear();
    live_.clear();
    fired_.clear();
    cancelled_.clear();
    now_ = 0.0;
    seq_ = 0;
  }

  void expect(bool cond, const std::string& what) {
    if (cond || !ok()) return;
    std::ostringstream os;
    os << "op " << op_ << " (" << where_ << "): " << what
       << "; queue now=" << q_->now() << " pending=" << q_->pending()
       << ", model now=" << now_ << " pending=" << pending_.size();
    failure_ = os.str();
  }

  void check(const char* when) {
    const std::string at = std::string(when) + " " + where_;
    expect(bits(q_->now()) == bits(now_), "now() differs " + at);
    expect(q_->pending() == pending_.size(), "pending() differs " + at);
    expect(q_->empty() == pending_.empty(), "empty() differs " + at);
    if (probe_next_time_) probe_next();
  }

  void probe_next() {
    const double want = pending_.empty() ? kInf : pending_.begin()->time;
    expect(bits(q_->next_time()) == bits(want), "next_time() differs");
  }

  void random_op() {
    const double r = rng_.uniform();
    if (r < 0.40) {
      where_ = "schedule";
      schedule_one();
    } else if (r < 0.60) {
      where_ = "cancel";
      cancel_one();
    } else if (r < 0.85) {
      where_ = "step";
      const bool had = !pending_.empty();
      const long before = dispatched_;
      const bool stepped = q_->step();
      expect(stepped == had, "step() return value");
      expect(dispatched_ - before == (had ? 1 : 0), "step() dispatch count");
    } else if (r < 0.93) {
      where_ = "run_until";
      run_until_one();
    } else {
      where_ = "next_time";
      probe_next();
    }
  }

  /// A time on the grid near now, or one of the edge cases; past and
  /// non-finite picks are part of the mix.
  double pick_time() {
    switch (rng_.uniform_int(0, 9)) {
      case 0: return now_;
      case 1: return now_ - 5e-10;  // float noise: absorbed to now
      case 2: return -0.0;          // accepted only while now is ~0
      case 3: return now_ - 2e-9;   // past
      case 4: {
        const double base = std::floor(now_ / kGrid);
        return (base + static_cast<double>(rng_.uniform_int(-2, 3))) * kGrid;
      }
      case 5: {
        const int64_t k = rng_.uniform_int(0, 2);
        return k == 0 ? kNaN : (k == 1 ? kInf : -kInf);
      }
      default:
        return now_ + static_cast<double>(rng_.uniform_int(0, 3)) * kGrid;
    }
  }

  double pick_delay() {
    switch (rng_.uniform_int(0, 7)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return -5e-10;
      case 3: return -2e-9;
      case 4: return rng_.bernoulli(0.5) ? kNaN : kInf;
      default: return static_cast<double>(rng_.uniform_int(0, 3)) * kGrid;
    }
  }

  void schedule_one() {
    const int form = static_cast<int>(rng_.uniform_int(0, 2));
    const double arg = form == 2 ? pick_delay() : pick_time();
    double t = form == 2 ? now_ + arg : arg;
    const bool valid = std::isfinite(t) && !(t < now_ - 1e-9);
    if (valid && t < now_) t = now_;
    const int label = next_label_++;
    auto fn = [this, label] { fire(label); };
    EventId id = kInvalidEvent;
    bool threw = false;
    try {
      if (form == 0)
        id = q_->schedule(arg, fn);
      else if (form == 1)
        id = q_->schedule_arrival(arg, fn);
      else
        id = q_->schedule_after(arg, fn);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    expect(threw == !valid, valid ? "a valid time threw" : "a bad time was accepted");
    if (threw) {
      ++threw_;
      return;
    }
    expect(id != kInvalidEvent, "schedule returned kInvalidEvent");
    expect(live_.count(id) == 0, "schedule reissued a live handle");
    if (!valid) return;
    const auto it =
        pending_.insert(ModelEvent{t, form == 1 ? 0 : 1, seq_++, label, id})
            .first;
    live_[id] = it;
  }

  EventId pick_handle() {
    switch (rng_.uniform_int(0, 4)) {
      case 0:
      case 1:
        if (!live_.empty()) {
          auto it = live_.begin();
          std::advance(it, rng_.uniform_int(
                               0, static_cast<int64_t>(live_.size()) - 1));
          return it->first;
        }
        return kInvalidEvent;
      case 2:
        if (!fired_.empty())
          return fired_[static_cast<size_t>(rng_.uniform_int(
              0, static_cast<int64_t>(fired_.size()) - 1))];
        return kInvalidEvent;
      case 3:
        if (!cancelled_.empty())
          return cancelled_[static_cast<size_t>(rng_.uniform_int(
              0, static_cast<int64_t>(cancelled_.size()) - 1))];
        return kInvalidEvent;
      default: {
        // Never issued: a generation no slot reaches, a slot index past
        // every slot, or the invalid handle.
        const auto slot = static_cast<uint64_t>(rng_.uniform_int(0, 8));
        switch (rng_.uniform_int(0, 2)) {
          case 0: return (uint64_t{0xfffffff0} << 32) | (slot + 1);
          case 1: return (uint64_t{1} << 32) | 0xfffffff0u;
          default: return kInvalidEvent;
        }
      }
    }
  }

  void cancel_one() {
    const EventId id = pick_handle();
    q_->cancel(id);
    const auto it = live_.find(id);
    if (it == live_.end()) return;  // fired, cancelled or never issued
    ++cancels_hit_;
    pending_.erase(it->second);
    live_.erase(it);
    cancelled_.push_back(id);
  }

  void run_until_one() {
    double t = now_;
    switch (rng_.uniform_int(0, 3)) {
      case 0:  // exactly on the next event: it must be dispatched
        if (!pending_.empty()) t = pending_.begin()->time;
        break;
      case 1:
        break;
      default:
        t += static_cast<double>(rng_.uniform_int(0, 4)) * kGrid;
    }
    max_fired_ = -kInf;
    q_->run_until(t);
    expect(!(max_fired_ > t), "run_until dispatched past its bound");
    expect(pending_.empty() || pending_.begin()->time > t,
           "run_until left an event at or before its bound");
    if (t > now_) now_ = t;
  }

  /// Every callback: the event the queue dispatched must be the model's
  /// least pending event; then, sometimes, schedule or cancel more.
  void fire(int label) {
    ++dispatched_;
    if (pending_.empty()) {
      expect(false, "dispatched label " + std::to_string(label) +
                        " with no model event pending");
      return;
    }
    const ModelEvent e = *pending_.begin();
    expect(label == e.label, "dispatched label " + std::to_string(label) +
                                 ", model expects " + std::to_string(e.label));
    pending_.erase(pending_.begin());
    live_.erase(e.id);
    fired_.push_back(e.id);
    now_ = e.time;
    if (e.time > max_fired_) max_fired_ = e.time;
    expect(bits(q_->now()) == bits(now_), "now() inside a callback");
    expect(q_->pending() == pending_.size(), "pending() inside a callback");
    if (!ok()) return;
    const std::string outer = where_;
    if (rng_.bernoulli(0.3)) {
      where_ = outer + " > callback schedule";
      schedule_one();
    }
    if (rng_.bernoulli(0.15)) {
      where_ = outer + " > callback cancel";
      cancel_one();
    }
    where_ = outer;
  }

  util::Rng rng_;
  const bool probe_next_time_;
  std::unique_ptr<EventQueue> q_;

  // The model.
  std::set<ModelEvent, ModelOrder> pending_;
  std::map<EventId, std::set<ModelEvent, ModelOrder>::iterator> live_;
  std::vector<EventId> fired_;
  std::vector<EventId> cancelled_;
  double now_ = 0.0;
  uint64_t seq_ = 0;

  int next_label_ = 0;
  double max_fired_ = -kInf;
  long op_ = 0;
  long dispatched_ = 0;
  long threw_ = 0;
  long cancels_hit_ = 0;
  std::string where_;
  std::string failure_;
};

class EventQueueModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventQueueModel, RandomOperationsMatchTheOrderedSetModel) {
  // Probing next_time() after every operation prunes the heap's cancelled
  // top each time; the second pass leaves stale entries in place until a
  // dispatch meets them.
  for (const bool probe_next_time : {true, false}) {
    SCOPED_TRACE(probe_next_time ? "next_time probed after every op"
                                 : "next_time probed as an op only");
    Harness h(GetParam(), probe_next_time);
    h.run(/*ops=*/10000, /*episode=*/2500);
    ASSERT_TRUE(h.ok()) << h.failure();
    // The mix really exercised dispatch, cancellation and the throws.
    EXPECT_GT(h.dispatched(), 2000);
    EXPECT_GT(h.cancels_hit(), 300);
    EXPECT_GT(h.threw(), 300);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace libra::sim
