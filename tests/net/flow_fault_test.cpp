// Fault semantics of the flow network: node crashes fail in-flight flows
// exactly once through the normal completion path (un-sent bytes
// uncounted), reboot wakes wait_node_up() waiters, and degraded-rate /
// link-flap windows reshape fair shares like any other constraint change.
#include "net/flow_network.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace hm::net {
namespace {

constexpr double kNic = 100e6;  // 100 MB/s for round numbers

struct NetFixture {
  sim::Simulator s;
  FlowNetwork net;
  explicit NetFixture(double fabric = 1e12, double latency = 0.0)
      : net(s, FlowNetworkConfig{fabric, latency}) {}
};

sim::Task xfer(FlowNetwork* net, NodeId a, NodeId b, double bytes, TrafficClass cls,
               bool* ok, double* done_at, sim::Simulator* s, int* resumes = nullptr) {
  const bool r = co_await net->transfer(a, b, bytes, cls);
  if (ok != nullptr) *ok = r;
  if (done_at != nullptr) *done_at = s->now();
  if (resumes != nullptr) ++*resumes;
}

sim::Task wait_up(FlowNetwork* net, NodeId n, double* resumed_at, sim::Simulator* s) {
  co_await net->wait_node_up(n);
  *resumed_at = s->now();
}

TEST(FlowFault, TransferToDownNodeFailsWithoutTraffic) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  f.net.set_node_up(b, false);
  bool ok = true;
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &ok, &done_at, &f.s));
  f.s.run();
  EXPECT_FALSE(ok);
  EXPECT_NEAR(done_at, 0.0, 1e-9);  // rejected at flow start, no drain time
  EXPECT_DOUBLE_EQ(f.net.traffic_bytes(TrafficClass::kMemory), 0.0);
}

TEST(FlowFault, CrashFailsInFlightFlowAndUncountsUnsentBytes) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  bool ok = true;
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &ok, &done_at, &f.s));
  f.s.schedule(0.4, [&] { f.net.set_node_up(b, false); });
  f.s.run();
  EXPECT_FALSE(ok);
  EXPECT_NEAR(done_at, 0.4, 1e-9);
  // 40 MB crossed the wire before the crash; the other 60 MB never did.
  EXPECT_NEAR(f.net.traffic_bytes(TrafficClass::kMemory), 40e6, 1.0);
}

TEST(FlowFault, ConcurrentFlowsThroughCrashedNodeEachResumeOnce) {
  NetFixture f;
  const NodeId b = f.net.add_node(kNic);
  const NodeId a = f.net.add_node(kNic), c = f.net.add_node(kNic),
               d = f.net.add_node(kNic);
  bool ok[3] = {true, true, true};
  double done[3] = {-1, -1, -1};
  int resumes = 0;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &ok[0], &done[0], &f.s,
                 &resumes));
  f.s.spawn(xfer(&f.net, c, b, 100e6, TrafficClass::kStoragePush, &ok[1], &done[1],
                 &f.s, &resumes));
  f.s.spawn(xfer(&f.net, b, d, 100e6, TrafficClass::kStoragePull, &ok[2], &done[2],
                 &f.s, &resumes));
  f.s.schedule(0.3, [&] { f.net.set_node_up(b, false); });
  f.s.run();
  EXPECT_EQ(resumes, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(ok[i]) << "flow " << i;
    EXPECT_NEAR(done[i], 0.3, 1e-9) << "flow " << i;
  }
  EXPECT_EQ(f.net.active_flows(), 0u);
}

TEST(FlowFault, CrashLeavesUnrelatedFlowRunning) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  const NodeId c = f.net.add_node(kNic), d = f.net.add_node(kNic);
  bool ok_cd = false;
  double done_cd = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, nullptr, nullptr, &f.s));
  f.s.spawn(xfer(&f.net, c, d, 100e6, TrafficClass::kMemory, &ok_cd, &done_cd, &f.s));
  f.s.schedule(0.3, [&] { f.net.set_node_up(b, false); });
  f.s.run();
  EXPECT_TRUE(ok_cd);
  EXPECT_NEAR(done_cd, 1.0, 1e-9);  // disjoint pair unaffected by the crash
}

TEST(FlowFault, RebootWakesAllWaitersAndBumpsEpoch) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  (void)a;
  EXPECT_EQ(f.net.node_epoch(b), 0u);
  f.net.set_node_up(b, false);
  EXPECT_FALSE(f.net.node_up(b));
  EXPECT_EQ(f.net.node_epoch(b), 1u);
  double up[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) f.s.spawn(wait_up(&f.net, b, &up[i], &f.s));
  f.s.schedule(5.0, [&] { f.net.set_node_up(b, true); });
  f.s.run();
  EXPECT_TRUE(f.net.node_up(b));
  EXPECT_EQ(f.net.node_epoch(b), 1u);  // reboot does not bump the incarnation
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(up[i], 5.0, 1e-9) << "waiter " << i;
  f.net.set_node_up(b, false);
  EXPECT_EQ(f.net.node_epoch(b), 2u);  // every crash does
}

TEST(FlowFault, WaitOnUpNodeResumesImmediately) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic);
  double up = -1;
  f.s.spawn(wait_up(&f.net, a, &up, &f.s));
  f.s.run();
  EXPECT_NEAR(up, 0.0, 1e-9);
}

TEST(FlowFault, DegradeWindowStretchesCompletion) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  bool ok = false;
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &ok, &done_at, &f.s));
  // Full rate for 0.5 s (50 MB), half rate for 0.5 s (25 MB), full rate for
  // the remaining 25 MB: done at 1.25 s.
  f.s.schedule(0.5, [&] { f.net.scale_node_capacity(a, 0.5, 0.5); });
  f.s.schedule(1.0, [&] { f.net.scale_node_capacity(a, 2.0, 2.0); });
  f.s.run();
  EXPECT_TRUE(ok);
  EXPECT_NEAR(done_at, 1.25, 1e-9);
}

TEST(FlowFault, FlapStallsFlowUntilRestored) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  bool ok = false;
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &ok, &done_at, &f.s));
  f.s.schedule(0.2, [&] { f.net.set_link_flapped(b, true); });
  f.s.schedule(0.7, [&] { f.net.set_link_flapped(b, false); });
  f.s.run();
  EXPECT_TRUE(ok);
  // The flow stalls (rate 0, still queued) for the 0.5 s flap window.
  EXPECT_NEAR(done_at, 1.5, 1e-9);
  EXPECT_NEAR(f.net.traffic_bytes(TrafficClass::kMemory), 100e6, 1.0);
}

TEST(FlowFault, NestedFlapHoldsReleaseOnlyWhenAllClear) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  bool ok = false;
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &ok, &done_at, &f.s));
  f.s.schedule(0.2, [&] { f.net.set_link_flapped(b, true); });
  f.s.schedule(0.4, [&] { f.net.set_link_flapped(b, true); });
  f.s.schedule(0.6, [&] { f.net.set_link_flapped(b, false); });
  f.s.schedule(1.0, [&] { f.net.set_link_flapped(b, false); });  // last hold
  f.s.run();
  EXPECT_TRUE(ok);
  EXPECT_NEAR(done_at, 1.8, 1e-9);  // stalled 0.2..1.0, resumed with 80 MB left
}

}  // namespace
}  // namespace hm::net
