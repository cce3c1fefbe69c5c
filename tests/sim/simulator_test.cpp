#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace hm::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, ScheduleAdvancesClock) {
  Simulator s;
  double fired_at = -1;
  s.schedule(5.0, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  s.schedule(3.0, [] {});
  s.run();
  double fired_at = -1;
  s.schedule(-7.0, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(3.0, [&] { order.push_back(3); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimestampIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule(1.0, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, StepExecutesExactlyOneEvent) {
  Simulator s;
  int count = 0;
  s.schedule(1.0, [&] { ++count; });
  s.schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator s;
  int count = 0;
  s.schedule(1.0, [&] { ++count; });
  s.schedule(2.0, [&] { ++count; });
  s.schedule(5.0, [&] { ++count; });
  s.run_until(2.5);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  s.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulator, TimerCancelPreventsFiring) {
  Simulator s;
  bool fired = false;
  auto t = s.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(t.active());
  t.cancel();
  EXPECT_FALSE(t.active());
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, TimerInactiveAfterFiring) {
  Simulator s;
  auto t = s.schedule(1.0, [] {});
  s.run();
  EXPECT_FALSE(t.active());
}

TEST(Simulator, CancelledEventsDoNotAdvanceClock) {
  Simulator s;
  auto t = s.schedule(10.0, [] {});
  t.cancel();
  bool fired = false;
  s.schedule(1.0, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);  // run() drains, clock is at last real event
}

TEST(Simulator, EventsScheduledFromCallbacksRun) {
  Simulator s;
  double inner_at = -1;
  s.schedule(1.0, [&] { s.schedule(2.0, [&] { inner_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(inner_at, 3.0);
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(static_cast<double>(i), [] {});
  s.run();
  EXPECT_EQ(s.events_processed(), 7u);
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) s.schedule(static_cast<double>(i), [&] { ++count; });
  const bool ok = s.run_while_pending([&] { return count >= 4; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, RunWhilePendingReturnsFalseIfQueueDrains) {
  Simulator s;
  s.schedule(1.0, [] {});
  const bool ok = s.run_while_pending([] { return false; });
  EXPECT_FALSE(ok);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator s;
  double fired_at = -1;
  s.schedule_at(2.5, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(Simulator, ScheduleAtInThePastClampsToNow) {
  Simulator s;
  s.schedule(3.0, [] {});
  s.run();
  double fired_at = -1;
  s.schedule_at(1.0, [&] { fired_at = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

// Generation counters: a handle to a fired entry stays inert even after the
// slab recycles its slot for a new entry.
TEST(Simulator, RecycledEntryKeepsOldHandlesInert) {
  Simulator s;
  bool first = false, second = false;
  auto t1 = s.schedule(1.0, [&] { first = true; });
  s.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(t1.active());
  auto t2 = s.schedule(1.0, [&] { second = true; });
  t1.cancel();  // stale handle: must not touch the recycled slot
  EXPECT_TRUE(t2.active());
  s.run();
  EXPECT_TRUE(second);
}

// A timer's capture is bit-copied into its slot's two words and rebuilt when
// it pops: every capture the budget admits must arrive bit for bit,
// including a pointer pair with one null word and captures narrower than a
// word.
TEST(Simulator, TimerCaptureWordsArriveIntact) {
  static std::vector<std::pair<const int*, const int*>> pointers;
  static std::vector<std::uint64_t> bits;
  pointers.clear();
  bits.clear();
  Simulator s;
  int x = 0, y = 0;
  int* const none = nullptr;
  s.schedule(1.0, [p = &x, q = &y] { pointers.emplace_back(p, q); });
  s.schedule(2.0, [p = &x, q = none] { pointers.emplace_back(p, q); });
  s.schedule(3.0, [p = none, q = &y] { pointers.emplace_back(p, q); });
  s.schedule(4.0, [u = std::uint64_t{0x0123456789abcdef}, d = -0.0] {
    bits.push_back(u);
    bits.push_back(std::bit_cast<std::uint64_t>(d));
  });
  s.schedule(5.0, [i = std::int32_t{-7}, c = 'q'] {
    bits.push_back(static_cast<std::uint32_t>(i));
    bits.push_back(static_cast<std::uint64_t>(c));
  });
  s.schedule(6.0, [] { bits.push_back(42); });
  s.run();
  EXPECT_EQ(pointers, (std::vector<std::pair<const int*, const int*>>{
                          {&x, &y}, {&x, nullptr}, {nullptr, &y}}));
  EXPECT_EQ(bits, (std::vector<std::uint64_t>{0x0123456789abcdef, 0x8000000000000000,
                                              0xfffffff9, 'q', 42}));
}

// Cancelling marks the slot's continuation dead: whether the timer is due
// now, due later, or cancelled by an earlier callback, its fn never runs,
// the pop that drops it counts no event and moves no clock, and the handle
// reads inactive from the cancel on.
TEST(Simulator, CancelledTimerNeverCallsItsFn) {
  Simulator s;
  int calls = 0;
  Simulator::Timer due_now = s.schedule(0.0, [&calls] { ++calls; });
  Simulator::Timer later = s.schedule(2.0, [&calls] { ++calls; });
  Simulator::Timer by_callback = s.schedule(3.0, [&calls] { ++calls; });
  Simulator::Timer past_horizon = s.schedule(8.0, [&calls] { ++calls; });
  s.schedule(1.0, [&by_callback] { by_callback.cancel(); });
  due_now.cancel();
  later.cancel();
  EXPECT_FALSE(due_now.active());
  EXPECT_FALSE(later.active());
  EXPECT_TRUE(by_callback.active());
  s.run_until(5.0);
  EXPECT_FALSE(by_callback.active());
  past_horizon.cancel();
  EXPECT_FALSE(past_horizon.active());
  s.run();
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(s.events_processed(), 1u);  // the canceller only
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

// Deadlines behind the clock, -inf and NaN all clamp to now(): they fire at
// the current instant, in schedule order, without the clock moving.
TEST(Simulator, PastOrNaNDeadlineClampsToNow) {
  Simulator s;
  s.schedule(3.0, [] {});
  s.run();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int, double>> fired;
  struct Ctx {
    Simulator& s;
    std::vector<std::pair<int, double>>& fired;
    void record(int id) { fired.emplace_back(id, s.now()); }
  } ctx{s, fired};
  s.schedule_at(1.0, [c = &ctx] { c->record(0); });
  s.schedule_at(nan, [c = &ctx] { c->record(1); });
  s.schedule(nan, [c = &ctx] { c->record(2); });
  s.schedule_at(-inf, [c = &ctx] { c->record(3); });
  s.schedule(-1.0, [c = &ctx] { c->record(4); });
  s.schedule(0.5, [c = &ctx] { c->record(5); });
  s.run_until(3.0);  // the clamped timers are due now; the last is not
  EXPECT_EQ(fired, (std::vector<std::pair<int, double>>{
                       {0, 3.0}, {1, 3.0}, {2, 3.0}, {3, 3.0}, {4, 3.0}}));
  s.run();
  EXPECT_EQ(fired.back(), (std::pair<int, double>{5, 3.5}));
}

// Out-of-order deadlines land in different radix buckets and are
// redistributed as the clock advances; global time order must hold.
TEST(Simulator, OutOfOrderSchedulingInterleavesLanes) {
  Simulator s;
  std::vector<double> order;
  for (double t : {5.0, 6.0, 1.0, 5.5, 7.0, 0.5, 6.5})
    s.schedule(t, [&order, &s] { order.push_back(s.now()); });
  s.run();
  EXPECT_EQ(order, (std::vector<double>{0.5, 1.0, 5.0, 5.5, 6.0, 6.5, 7.0}));
}

// Long self-rescheduling chain: the slab must recycle entries instead of
// growing, and the clock must stay monotone across bucket redistributions.
TEST(Simulator, PoolRecyclingUnderChainedScheduling) {
  Simulator s;
  // Hop state lives in one struct so each event's callback is a single
  // pointer capture (a timer's two-word capture budget).
  struct Chain {
    Simulator& s;
    int remaining = 10000;
    double last = -1;
    void hop() {
      EXPECT_GE(s.now(), last);
      last = s.now();
      if (--remaining > 0)
        s.schedule(static_cast<double>(remaining % 7) * 1e-3, [this] { hop(); });
    }
  } chain{s};
  s.schedule(0.0, [&chain] { chain.hop(); });
  s.run();
  const int remaining = chain.remaining;
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(s.events_processed(), 10000u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, PendingEventsTracksQueue) {
  Simulator s;
  auto a = s.schedule(1.0, [] {});
  s.schedule(2.0, [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  a.cancel();
  s.run();
  EXPECT_EQ(s.pending_events(), 0u);
}

// A cancelled entry beyond run_until's horizon stays queued: popping it
// would rebuild the radix lane around a deadline the clock never reached,
// and a later timer between the horizon and that deadline would misorder.
TEST(Simulator, RunUntilKeepsCancelledEntryBeyondHorizon) {
  Simulator s;
  Simulator::Timer far = s.schedule(10.0, [] {});
  far.cancel();
  s.run_until(2.0);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  std::vector<double> fired;
  s.schedule(1.0, [&] { fired.push_back(s.now()); });     // t = 3
  s.schedule_at(2.5, [&] { fired.push_back(s.now()); });  // t = 2.5
  s.schedule(0.0, [&] { fired.push_back(s.now()); });     // t = 2
  s.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 2.5, 3.0}));
  EXPECT_EQ(s.pending_events(), 0u);
}

// run() drains by popping a cancelled entry later than the clock; timers
// scheduled afterwards, earlier than that entry, must still run in order.
TEST(Simulator, SchedulesAfterDrainFollowingCancelledPop) {
  Simulator s;
  s.schedule(1.0, [] {});
  s.schedule(5.0, [] {}).cancel();
  s.run();
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  std::vector<double> fired;
  s.schedule(2.0, [&] { fired.push_back(s.now()); });
  s.schedule(0.5, [&] { fired.push_back(s.now()); });
  s.schedule(0.0, [&] { fired.push_back(s.now()); });
  s.run();
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5, 3.0}));
}

// Randomized check of the timer and fast lanes against a reference ordered
// by (t, seq). Every event asserts that it is the reference's earliest, then
// draws a few more actions: timers with the fleet workloads' delay mix,
// arbitrary absolute deadlines, past and NaN deadlines (clamped to now),
// +inf deadlines, posts, cancellable posts and cancellations. The test loop
// interleaves step(), run_until() horizons (some behind the clock) and
// actions taken between events.
class LaneOracle {
 public:
  LaneOracle(Simulator& s, std::uint64_t seed, int budget)
      : s_(s), rng_(seed), budget_(budget) {}

  /// One random action at the current time (a no-op once the budget is
  /// spent, so every run drains).
  void act() {
    if (budget_ <= 0) return;
    --budget_;
    static constexpr double kDelays[] = {0.0001,     0.000985504, 0.00262144,
                                         0.00526625, 0.0667,      0.1};
    static constexpr double kOddDeadlines[] = {-1.0, std::numeric_limits<double>::quiet_NaN(),
                                               std::numeric_limits<double>::infinity()};
    const unsigned kind = static_cast<unsigned>(rng_() % 10);
    if (kind == 9) {
      cancel_one();
      return;
    }
    const double now = s_.now();
    const std::uint64_t seq = seq_++;  // mirrors the simulator's schedule counter
    if (kind < 4) {
      const double d = kDelays[rng_() % 6];
      add_timer(s_.schedule(d, [this, seq] { fire(seq); }), now + d, seq);
    } else if (kind == 4) {
      // Arbitrary absolute deadline on a coarse grid, so some tie exactly.
      const double t = now + static_cast<double>(rng_() % 64) * 0.00390625;
      add_timer(s_.schedule_at(t, [this, seq] { fire(seq); }), t, seq);
    } else if (kind == 5) {
      const double t = kOddDeadlines[rng_() % 3];
      add_timer(s_.schedule_at(t, [this, seq] { fire(seq); }), t > now ? t : now, seq);
    } else if (kind < 8) {
      s_.post(&fire_fast, this, reinterpret_cast<void*>(static_cast<std::uintptr_t>(seq)));
      pending_.insert(Key{now, seq});
    } else {
      add_timer(s_.post_cancellable(&fire_fast, this,
                                    reinterpret_cast<void*>(static_cast<std::uintptr_t>(seq))),
                now, seq);
    }
  }

  bool idle() const { return pending_.empty(); }
  bool none_due_by(double t) const { return pending_.empty() || pending_.begin()->t > t; }
  std::uint64_t fired() const { return fired_; }

 private:
  struct Key {
    double t;
    std::uint64_t seq;
    bool operator<(const Key& o) const { return t < o.t || (t == o.t && seq < o.seq); }
  };

  static void fire_fast(void* self, void* seq) {
    static_cast<LaneOracle*>(self)->fire(reinterpret_cast<std::uintptr_t>(seq));
  }
  void fire(std::uint64_t seq) {
    ASSERT_FALSE(pending_.empty());
    EXPECT_EQ(pending_.begin()->seq, seq);
    EXPECT_EQ(pending_.begin()->t, s_.now());
    pending_.erase(Key{s_.now(), seq});
    ++fired_;
    for (unsigned n = static_cast<unsigned>(rng_() % 4); n > 0; --n) act();
  }
  void add_timer(Simulator::Timer h, double t, std::uint64_t seq) {
    pending_.insert(Key{t, seq});
    handles_.emplace_back(h, Key{t, seq});
  }
  // Cancel a random handle, fired or not: a handle is active exactly while
  // its event is pending, and cancelling a fired one is inert.
  void cancel_one() {
    if (handles_.empty()) return;
    const std::size_t i = rng_() % handles_.size();
    auto [h, key] = handles_[i];
    handles_[i] = handles_.back();
    handles_.pop_back();
    EXPECT_EQ(h.active(), pending_.count(key) > 0);
    h.cancel();
    EXPECT_FALSE(h.active());
    pending_.erase(key);
  }

  Simulator& s_;
  std::mt19937_64 rng_;
  int budget_;
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
  std::set<Key> pending_;  // uncancelled events, in (t, seq) order
  std::vector<std::pair<Simulator::Timer, Key>> handles_;
};

TEST(Simulator, TimerLaneMatchesReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Simulator s;
    LaneOracle oracle(s, seed, 20000);
    std::mt19937_64 drive(seed * 7919);
    for (int i = 0; i < 64; ++i) oracle.act();
    while (!oracle.idle()) {
      switch (drive() % 4) {
        case 0:
          s.step();
          break;
        case 1:
          for (int i = 0; i < 8 && !oracle.idle(); ++i) s.step();
          break;
        case 2: {
          // A horizon up to 4 ms behind the clock or 35 ms ahead of it.
          const double before = s.now();
          const double h = before + (static_cast<double>(drive() % 40) - 4.0) * 0.001;
          s.run_until(h);
          EXPECT_EQ(s.now(), std::max(before, h));
          EXPECT_TRUE(oracle.none_due_by(h));
          break;
        }
        default:
          oracle.act();  // between events, after a step or a clock jump
          break;
      }
    }
    s.run();
    EXPECT_TRUE(oracle.idle());
    EXPECT_EQ(s.pending_events(), 0u);
    EXPECT_EQ(s.events_processed(), oracle.fired());
  }
}

// --- fast lane ---------------------------------------------------------------

namespace {
void push_tag(void* vec, void* tag) {
  static_cast<std::vector<int>*>(vec)->push_back(
      static_cast<int>(reinterpret_cast<std::intptr_t>(tag)));
}
void bump(void* counter, void*) { ++*static_cast<int*>(counter); }
}  // namespace

// Events reaching ONE timestamp by all three routes — timers redistributed
// into the radix lane's bucket 0, timers pushed straight into it, and
// fast-lane posts — must drain in global schedule order (FIFO by seq).
TEST(Simulator, SameTimestampFifoAcrossAllThreeLanes) {
  Simulator s;
  std::vector<int> order;
  struct Ctx {
    Simulator& s;
    std::vector<int>& order;
  } ctx{s, order};
  // seq 0: timer at t=1 that fans out into both lanes when run.
  s.schedule(1.0, [&ctx] {
    ctx.order.push_back(1);
    // The clock is at t=1, so these zero-delay timers land straight in
    // bucket 0, behind the seq-2 timer redistributed there before...
    ctx.s.schedule(0.0, [&ctx] { ctx.order.push_back(3); });
    // ...while posts land in the fast lane's ring.
    ctx.s.post(&push_tag, &ctx.order, reinterpret_cast<void*>(4));
    ctx.s.schedule(0.0, [&ctx] { ctx.order.push_back(5); });
    ctx.s.post(&push_tag, &ctx.order, reinterpret_cast<void*>(6));
  });
  s.schedule(5.0, [&ctx] { ctx.order.push_back(7); });  // seq 1: future bucket
  s.schedule(1.0, [&ctx] { ctx.order.push_back(2); });  // seq 2: ties seq 0
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, PostsRunAtCurrentTimeBeforeLaterTimers) {
  Simulator s;
  s.schedule(2.0, [] {});
  s.run();  // advance to t=2
  std::vector<int> order;
  s.post(&push_tag, &order, reinterpret_cast<void*>(1));
  s.schedule(1.0, [&order] { order.push_back(2); });
  s.post(&push_tag, &order, reinterpret_cast<void*>(3));
  s.run();
  // Posts run at t=2 (in push order), the timer at t=3.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Simulator, PendingEventsCountsFastLane) {
  Simulator s;
  int count = 0;
  s.post(&bump, &count);
  s.post(&bump, &count);
  s.schedule(1.0, [] {});
  EXPECT_EQ(s.pending_events(), 3u);
  s.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, CancelledFastLaneEntryDoesNotRunOrCount) {
  Simulator s;
  int cancelled_fired = 0, other_fired = 0;
  Simulator::Timer t = s.post_cancellable(&bump, &cancelled_fired);
  s.post(&bump, &other_fired);
  EXPECT_TRUE(t.active());
  t.cancel();
  EXPECT_FALSE(t.active());
  s.run();
  EXPECT_EQ(cancelled_fired, 0);
  EXPECT_EQ(other_fired, 1);
  // Cancelled fast entries are skipped without counting, like cancelled
  // timer-slot entries.
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(Simulator, FastLaneTimerInactiveAfterFiring) {
  Simulator s;
  int fired = 0;
  Simulator::Timer t = s.post_cancellable(&bump, &fired);
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.active());
}

// Fast-lane indices never recycle, so a stale handle can neither cancel nor
// report active for an entry pushed later (unlike a ring-slot scheme).
TEST(Simulator, StaleFastLaneHandleIsInert) {
  Simulator s;
  int first = 0, second = 0;
  Simulator::Timer t1 = s.post_cancellable(&bump, &first);
  s.run();
  EXPECT_EQ(first, 1);
  Simulator::Timer t2 = s.post_cancellable(&bump, &second);
  t1.cancel();  // stale: must not touch the new entry
  EXPECT_TRUE(t2.active());
  s.run();
  EXPECT_EQ(second, 1);
}

TEST(Simulator, FastLaneSurvivesRingGrowth) {
  Simulator s;
  std::vector<int> order;
  // Push far past the initial ring capacity in one burst; FIFO must hold.
  for (int i = 0; i < 1000; ++i)
    s.post(&push_tag, &order, reinterpret_cast<void*>(static_cast<std::intptr_t>(i)));
  s.run();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RunUntilDrainsFastLaneAtBoundary) {
  Simulator s;
  int fired = 0;
  // The t=1 event posts a zero-delay continuation; run_until(1.0) must run
  // it (it sits at t=1, not after it).
  struct Ctx {
    Simulator& s;
    int& fired;
  } ctx{s, fired};
  s.schedule(1.0, [&ctx] { ctx.s.post(&bump, &ctx.fired); });
  s.run_until(1.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
}

namespace {
Task yield_once(Simulator* s, std::vector<int>* order, int tag) {
  co_await s->yield();
  order->push_back(tag);
}
}  // namespace

// yield() must queue behind events already pending at the same instant
// (its handle goes through the fast lane, in global seq order).
TEST(Simulator, YieldQueuesBehindSameInstantEvents) {
  Simulator s;
  std::vector<int> order;
  s.spawn(yield_once(&s, &order, 1));              // seq 0: start the coroutine
  s.schedule(0.0, [&order] { order.push_back(2); });  // seq 1
  s.run();
  // The spawned coroutine starts first but its yield re-queues it (seq 2)
  // behind the scheduled event.
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

}  // namespace
}  // namespace hm::sim
