#include "sim/sync.h"

#include <gtest/gtest.h>

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

Task hold_semaphore(Simulator* s, Semaphore* sem, double hold_s, std::vector<int>* order,
                    int id) {
  co_await sem->acquire();
  order->push_back(id);
  co_await s->delay(hold_s);
  sem->release();
}

TEST(Semaphore, MutualExclusionSerializes) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) s.spawn(hold_semaphore(&s, &sem, 1.0, &order, i));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));  // strict FIFO
  EXPECT_DOUBLE_EQ(s.now(), 4.0);                    // serialized holds
}

TEST(Semaphore, CountTwoAllowsTwoConcurrent) {
  Simulator s;
  Semaphore sem(s, 2);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) s.spawn(hold_semaphore(&s, &sem, 1.0, &order, i));
  s.run();
  EXPECT_DOUBLE_EQ(s.now(), 2.0);  // two waves of two
}

TEST(Semaphore, QueueLengthVisible) {
  Simulator s;
  Semaphore sem(s, 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) s.spawn(hold_semaphore(&s, &sem, 1.0, &order, i));
  s.run_until(0.5);
  EXPECT_EQ(sem.queue_length(), 2u);
  s.run();
  EXPECT_EQ(sem.queue_length(), 0u);
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
