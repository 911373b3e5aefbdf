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
// throw); schedule_fifo into two FIFO lanes, at the lane's cadence after
// now() (an append), earlier than the lane's last schedule (the heap
// fallback), at the edge-case times above and into an unknown lane (which
// must throw); cancel of live, fired, cancelled and never-issued handles,
// and of the earliest and of a later live entry of a lane; step, run_until
// and next_time; and callbacks that schedule and cancel further events
// while they run, a fired lane event re-arming itself at its cadence the
// way a monitor tick does. To the model a lane event is a normal event:
// the lanes may change where an event waits, never when it fires.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
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
/// Each lane's cadence: lane 0 fires every grid step, lane 1 every three.
constexpr double kCadence[] = {kGrid, 3 * kGrid};
constexpr int kLanes = 2;

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

/// One pending event of the model. Ordered by time, then lane (arrivals
/// first), then scheduling order; -0.0 and 0.0 tie, as in the queue.
struct ModelEvent {
  double time;
  int lane;  // 0 = arrival, 1 = normal
  uint64_t seq;
  int label;
  EventId id;
  int fifo;  // the FIFO lane it was scheduled into, or -1; not in the order
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
  long fifo_appends() const { return fifo_appends_; }
  long fifo_fallbacks() const { return fifo_fallbacks_; }
  long fifo_dispatched() const { return fifo_dispatched_; }
  long fifo_head_cancels() const { return fifo_head_cancels_; }
  long fifo_middle_cancels() const { return fifo_middle_cancels_; }

 private:
  void reset() {
    q_ = std::make_unique<EventQueue>();
    for (int l = 0; l < kLanes; ++l) {
      lanes_[l] = q_->add_fifo_lane();
      lane_last_[l] = -kInf;
      lane_ids_[l].clear();
    }
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
    if (r < 0.28) {
      where_ = "schedule";
      schedule_one();
    } else if (r < 0.40) {
      // Up to three at once, as when several invocations start executing
      // at the same instant and each arms its monitor.
      where_ = "schedule_fifo";
      const int lane = static_cast<int>(rng_.uniform_int(0, kLanes - 1));
      for (int64_t n = rng_.uniform_int(1, 3); n > 0; --n)
        schedule_fifo_one(lane);
    } else if (r < 0.53) {
      where_ = "cancel";
      cancel_one();
    } else if (r < 0.60) {
      where_ = "cancel lane entry";
      cancel_lane_entry();
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
        pending_
            .insert(ModelEvent{t, form == 1 ? 0 : 1, seq_++, label, id, -1})
            .first;
    live_[id] = it;
  }

  /// schedule_fifo into `lane`: mostly at its cadence after now() (the
  /// timer's own shape, an append), else earlier than the lane's last
  /// schedule (the heap fallback, unless the lane has drained since), at
  /// one of pick_time()'s edge cases, or into a lane that does not exist.
  void schedule_fifo_one(int lane) {
    double arg;
    bool bad_lane = false;
    const double r = rng_.uniform();
    if (r < 0.55) {
      arg = now_ + kCadence[lane];
    } else if (r < 0.80 && lane_last_[lane] > now_) {
      // On the grid at or after now(), but before the last schedule.
      const double span = lane_last_[lane] - now_;
      arg = now_ + std::floor(rng_.uniform() * span / kGrid) * kGrid;
      if (!(arg < lane_last_[lane])) arg = now_;
    } else if (r < 0.97) {
      arg = pick_time();
    } else {
      arg = now_ + kCadence[lane];
      bad_lane = true;
    }
    double t = arg;
    const bool valid = std::isfinite(t) && !(t < now_ - 1e-9);
    if (valid && t < now_) t = now_;
    const int label = next_label_++;
    EventId id = kInvalidEvent;
    const char* threw = nullptr;
    try {
      id = q_->schedule_fifo(
          bad_lane ? EventQueue::FifoLane{kLanes + 7} : lanes_[lane], arg,
          [this, label] { fire(label); });
    } catch (const std::invalid_argument&) {
      threw = "invalid_argument";
    } catch (const std::out_of_range&) {
      threw = "out_of_range";
    }
    if (bad_lane) {
      expect(threw && std::string(threw) == "out_of_range",
             "an unknown lane was accepted");
      ++threw_;
      return;
    }
    expect(!threw == valid, valid ? "a valid time threw" : "a bad time was accepted");
    if (threw) {
      ++threw_;
      return;
    }
    expect(id != kInvalidEvent, "schedule_fifo returned kInvalidEvent");
    expect(live_.count(id) == 0, "schedule_fifo reissued a live handle");
    if (t < lane_last_[lane]) {
      ++fifo_fallbacks_;
    } else {
      ++fifo_appends_;
      lane_last_[lane] = t;
    }
    const auto it =
        pending_.insert(ModelEvent{t, 1, seq_++, label, id, lane}).first;
    live_[id] = it;
    lane_ids_[lane].push_back(id);
  }

  /// Cancels the earliest live event scheduled into a lane (its head,
  /// unless it fell back to the heap) or a later one (a middle entry).
  void cancel_lane_entry() {
    const int lane = static_cast<int>(rng_.uniform_int(0, kLanes - 1));
    std::vector<EventId>& ids = lane_ids_[lane];
    // Forget handles that fired or were cancelled by other operations.
    std::erase_if(ids, [this](EventId id) { return live_.count(id) == 0; });
    if (ids.empty()) return;
    const bool head = ids.size() == 1 || rng_.bernoulli(0.3);
    const size_t pos =
        head ? 0
             : static_cast<size_t>(rng_.uniform_int(
                   1, static_cast<int64_t>(ids.size()) - 1));
    const EventId id = ids[pos];
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pos));
    ++(head ? fifo_head_cancels_ : fifo_middle_cancels_);
    q_->cancel(id);
    const auto it = live_.find(id);
    ++cancels_hit_;
    pending_.erase(it->second);
    live_.erase(it);
    cancelled_.push_back(id);
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
    if (e.fifo >= 0) ++fifo_dispatched_;
    if (e.fifo >= 0 && rng_.bernoulli(0.5)) {
      where_ = outer + " > lane timer re-arms";
      schedule_fifo_one(e.fifo);
    }
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
  EventQueue::FifoLane lanes_[kLanes] = {};
  /// Per lane: the latest time scheduled into it since the episode began.
  double lane_last_[kLanes] = {};
  /// Per lane: handles scheduled into it, in scheduling order.
  std::vector<EventId> lane_ids_[kLanes];

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
  long fifo_appends_ = 0;
  long fifo_fallbacks_ = 0;
  long fifo_dispatched_ = 0;
  long fifo_head_cancels_ = 0;
  long fifo_middle_cancels_ = 0;
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
    // ... and the lanes: appends, fallbacks, lane dispatches, and cancels
    // of lane heads and of entries behind them.
    EXPECT_GT(h.fifo_appends(), 1500);
    EXPECT_GT(h.fifo_fallbacks(), 400);
    EXPECT_GT(h.fifo_dispatched(), 1500);
    EXPECT_GT(h.fifo_head_cancels(), 100);
    EXPECT_GT(h.fifo_middle_cancels(), 100);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModel,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace libra::sim
