#include "sim/sync.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "sim/simulator.h"

namespace hm::sim {
namespace {

Task wait_event(Event* e, int* counter) {
  co_await e->wait();
  ++(*counter);
}

TEST(Event, WaitersResumeOnSet) {
  Simulator s;
  Event e(s);
  int counter = 0;
  for (int i = 0; i < 3; ++i) s.spawn(wait_event(&e, &counter));
  s.run();
  EXPECT_EQ(counter, 0);  // not set yet
  e.set();
  s.run();
  EXPECT_EQ(counter, 3);
}

TEST(Event, WaitAfterSetContinuesImmediately) {
  Simulator s;
  Event e(s);
  e.set();
  int counter = 0;
  s.spawn(wait_event(&e, &counter));
  s.run();
  EXPECT_EQ(counter, 1);
}

TEST(Event, DoubleSetIsIdempotent) {
  Simulator s;
  Event e(s);
  int counter = 0;
  s.spawn(wait_event(&e, &counter));
  s.run();
  e.set();
  e.set();
  s.run();
  EXPECT_EQ(counter, 1);
  EXPECT_TRUE(e.is_set());
}

Task wait_notification(Notification* n, int* counter) {
  co_await n->wait();
  ++(*counter);
}

TEST(Notification, WakesOnlyCurrentWaiters) {
  Simulator s;
  Notification n(s);
  int counter = 0;
  s.spawn(wait_notification(&n, &counter));
  s.run();
  n.notify_all();
  s.run();
  EXPECT_EQ(counter, 1);
  // A new waiter registered after the notify must wait for the next one.
  s.spawn(wait_notification(&n, &counter));
  s.run();
  EXPECT_EQ(counter, 1);
  n.notify_all();
  s.run();
  EXPECT_EQ(counter, 2);
}

Task pass_gate(Gate* g, int* counter) {
  co_await g->wait_open();
  ++(*counter);
}

TEST(Gate, OpenGatePassesImmediately) {
  Simulator s;
  Gate g(s, /*open=*/true);
  int counter = 0;
  s.spawn(pass_gate(&g, &counter));
  s.run();
  EXPECT_EQ(counter, 1);
}

TEST(Gate, ClosedGateBlocksUntilOpen) {
  Simulator s;
  Gate g(s, /*open=*/false);
  int counter = 0;
  s.spawn(pass_gate(&g, &counter));
  s.spawn(pass_gate(&g, &counter));
  s.run();
  EXPECT_EQ(counter, 0);
  g.open();
  s.run();
  EXPECT_EQ(counter, 2);
}

TEST(Gate, ReclosableGate) {
  Simulator s;
  Gate g(s, true);
  g.close();
  EXPECT_FALSE(g.is_open());
  int counter = 0;
  s.spawn(pass_gate(&g, &counter));
  s.run();
  EXPECT_EQ(counter, 0);
  g.open();
  s.run();
  EXPECT_EQ(counter, 1);
}

/// One service of `service_s` at a FifoStation, awaited in place.
struct Serve {
  FifoStation& st;
  FifoStation::Node node;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    node.cont = h;
    st.submit(&node);
  }
  void await_resume() const noexcept {}
};

Task hold_station(Simulator* s, FifoStation* st, double service_s, std::vector<int>* order,
                  std::vector<double>* done_at, int id) {
  co_await Serve{*st, {service_s, nullptr, nullptr}};
  order->push_back(id);
  done_at->push_back(s->now());
}

TEST(FifoStation, MutualExclusionSerializes) {
  Simulator s;
  FifoStation st(s);
  std::vector<int> order;
  std::vector<double> done_at;
  for (int i = 0; i < 4; ++i) s.spawn(hold_station(&s, &st, 1.0, &order, &done_at, i));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));             // strict FIFO
  EXPECT_EQ(done_at, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));  // serialized services
  EXPECT_FALSE(st.busy());
}

TEST(FifoStation, QueueLengthVisible) {
  Simulator s;
  FifoStation st(s);
  std::vector<int> order;
  std::vector<double> done_at;
  for (int i = 0; i < 3; ++i) s.spawn(hold_station(&s, &st, 1.0, &order, &done_at, i));
  s.run_until(0.5);
  EXPECT_TRUE(st.busy());
  EXPECT_EQ(st.queue_length(), 2u);  // behind the one in service
  s.run();
  EXPECT_EQ(st.queue_length(), 0u);
  EXPECT_FALSE(st.busy());
}

Task wg_worker(Simulator* s, WaitGroup* wg, double dt) {
  co_await s->delay(dt);
  wg->done();
}

Task wg_waiter(WaitGroup* wg, double* finished_at, Simulator* s) {
  co_await wg->wait();
  *finished_at = s->now();
}

TEST(WaitGroup, WaitsForAllWorkers) {
  Simulator s;
  WaitGroup wg(s);
  wg.add(3);
  s.spawn(wg_worker(&s, &wg, 1.0));
  s.spawn(wg_worker(&s, &wg, 5.0));
  s.spawn(wg_worker(&s, &wg, 3.0));
  double finished_at = -1;
  s.spawn(wg_waiter(&wg, &finished_at, &s));
  s.run();
  EXPECT_DOUBLE_EQ(finished_at, 5.0);
}

TEST(WaitGroup, ZeroCountPassesImmediately) {
  Simulator s;
  WaitGroup wg(s);
  double finished_at = -1;
  s.spawn(wg_waiter(&wg, &finished_at, &s));
  s.run();
  EXPECT_DOUBLE_EQ(finished_at, 0.0);
}

Task barrier_party(Simulator* s, Barrier* b, double arrive_delay, double* passed_at) {
  co_await s->delay(arrive_delay);
  co_await b->arrive_and_wait();
  *passed_at = s->now();
}

TEST(Barrier, AllPartiesWaitForSlowest) {
  Simulator s;
  Barrier b(s, 3);
  double t0 = -1, t1 = -1, t2 = -1;
  s.spawn(barrier_party(&s, &b, 1.0, &t0));
  s.spawn(barrier_party(&s, &b, 2.0, &t1));
  s.spawn(barrier_party(&s, &b, 7.0, &t2));
  s.run();
  EXPECT_DOUBLE_EQ(t0, 7.0);
  EXPECT_DOUBLE_EQ(t1, 7.0);
  EXPECT_DOUBLE_EQ(t2, 7.0);
}

Task barrier_loop(Simulator* s, Barrier* b, int rounds, double step, int* completed) {
  for (int i = 0; i < rounds; ++i) {
    co_await s->delay(step);
    co_await b->arrive_and_wait();
  }
  ++(*completed);
}

TEST(Barrier, CyclicReuseAcrossRounds) {
  Simulator s;
  Barrier b(s, 4);
  int completed = 0;
  for (int i = 0; i < 4; ++i) s.spawn(barrier_loop(&s, &b, 10, 0.5 * (i + 1), &completed));
  s.run();
  EXPECT_EQ(completed, 4);
  // Each round is paced by the slowest party (2.0s), 10 rounds.
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  Simulator s;
  Barrier b(s, 1);
  int completed = 0;
  s.spawn(barrier_loop(&s, &b, 3, 1.0, &completed));
  s.run();
  EXPECT_EQ(completed, 1);
}

}  // namespace
}  // namespace hm::sim
