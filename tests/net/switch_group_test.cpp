// Oversubscribed edge-switch topology: uplink constraints only bind for
// flows crossing switch boundaries (the mechanism behind Figure 4's
// contention at 30 concurrent migrations).
#include <gtest/gtest.h>

#include "net/flow_network.h"
#include "sim/simulator.h"

namespace hm::net {
namespace {

constexpr double kNic = 100e6;

struct GroupFixture {
  sim::Simulator s;
  FlowNetwork net;
  GroupFixture() : net(s, FlowNetworkConfig{1e12, 0.0}) {}
};

sim::Task xfer(FlowNetwork* net, NodeId a, NodeId b, double bytes, double* done_at,
               sim::Simulator* s) {
  co_await net->transfer(a, b, bytes, TrafficClass::kMemory);
  *done_at = s->now();
}

TEST(SwitchGroups, IntraSwitchFlowsIgnoreUplink) {
  GroupFixture f;
  const SwitchGroupId sw = f.net.add_switch_group(10e6);  // tiny uplink
  const NodeId a = f.net.add_node(kNic, sw), b = f.net.add_node(kNic, sw);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);  // full NIC speed despite the uplink
}

TEST(SwitchGroups, CrossSwitchFlowBoundByUplink) {
  GroupFixture f;
  const SwitchGroupId sw1 = f.net.add_switch_group(25e6);
  const SwitchGroupId sw2 = f.net.add_switch_group(25e6);
  const NodeId a = f.net.add_node(kNic, sw1), b = f.net.add_node(kNic, sw2);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 4.0, 1e-6);  // 25 MB/s uplink
}

TEST(SwitchGroups, UplinkSharedByCrossFlowsOnly) {
  GroupFixture f;
  const SwitchGroupId sw1 = f.net.add_switch_group(50e6);
  const SwitchGroupId sw2 = f.net.add_switch_group(1e12);
  const NodeId a = f.net.add_node(kNic, sw1);
  const NodeId b = f.net.add_node(kNic, sw1);
  const NodeId c = f.net.add_node(kNic, sw1);
  const NodeId d = f.net.add_node(kNic, sw2);
  const NodeId e = f.net.add_node(kNic, sw2);
  double cross1 = -1, cross2 = -1, local = -1;
  // Two cross-switch flows share the 50 MB/s uplink of sw1.
  f.s.spawn(xfer(&f.net, a, d, 50e6, &cross1, &f.s));
  f.s.spawn(xfer(&f.net, b, e, 50e6, &cross2, &f.s));
  // An intra-switch flow does not touch the uplink.
  f.s.spawn(xfer(&f.net, c, a, 100e6, &local, &f.s));
  f.s.run();
  EXPECT_NEAR(cross1, 2.0, 1e-6);  // 25 MB/s each across the uplink
  EXPECT_NEAR(cross2, 2.0, 1e-6);
  EXPECT_NEAR(local, 1.0, 1e-6);  // NIC-bound... a's ingress is free
}

TEST(SwitchGroups, DownlinkIsAlsoConstrained) {
  GroupFixture f;
  const SwitchGroupId sw1 = f.net.add_switch_group(1e12);
  const SwitchGroupId sw2 = f.net.add_switch_group(40e6);
  const NodeId a = f.net.add_node(kNic, sw1), b = f.net.add_node(kNic, sw1);
  const NodeId c = f.net.add_node(kNic, sw2), d = f.net.add_node(kNic, sw2);
  double d1 = -1, d2 = -1;
  // Both flows converge INTO sw2: its downlink (40 MB/s) is the bottleneck.
  f.s.spawn(xfer(&f.net, a, c, 40e6, &d1, &f.s));
  f.s.spawn(xfer(&f.net, b, d, 40e6, &d2, &f.s));
  f.s.run();
  EXPECT_NEAR(d1, 2.0, 1e-6);
  EXPECT_NEAR(d2, 2.0, 1e-6);
}

TEST(SwitchGroups, GroupZeroIsUnlimitedDefault) {
  GroupFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  EXPECT_EQ(f.net.group_of(a), 0u);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(SwitchGroups, MaxMinAcrossMixedConstraints) {
  // One flow bound by an uplink, another free: the free flow must pick up
  // the remaining NIC capacity of the shared source.
  GroupFixture f;
  const SwitchGroupId sw1 = f.net.add_switch_group(20e6);
  const SwitchGroupId sw2 = f.net.add_switch_group(1e12);
  const NodeId src = f.net.add_node(kNic, sw1);
  const NodeId far = f.net.add_node(kNic, sw2);   // via the 20 MB/s uplink
  const NodeId near = f.net.add_node(kNic, sw1);  // intra-switch
  double d_far = -1, d_near = -1;
  f.s.spawn(xfer(&f.net, src, far, 20e6, &d_far, &f.s));
  f.s.spawn(xfer(&f.net, src, near, 80e6, &d_near, &f.s));
  f.s.run();
  EXPECT_NEAR(d_far, 1.0, 1e-6);   // 20 MB/s (uplink bound)
  EXPECT_NEAR(d_near, 1.0, 1e-6);  // 80 MB/s (gets the NIC remainder)
}

class UplinkSweep : public ::testing::TestWithParam<int> {};

TEST_P(UplinkSweep, AggregateNeverExceedsUplink) {
  const int n = GetParam();
  GroupFixture f;
  const SwitchGroupId sw1 = f.net.add_switch_group(60e6);
  const SwitchGroupId sw2 = f.net.add_switch_group(1e12);
  for (int i = 0; i < n; ++i) {
    const NodeId a = f.net.add_node(kNic, sw1);
    const NodeId b = f.net.add_node(kNic, sw2);
    f.s.spawn([](FlowNetwork* net, NodeId x, NodeId y) -> sim::Task {
      co_await net->transfer(x, y, 10e6, TrafficClass::kMemory);
    }(&f.net, a, b));
  }
  f.s.run_until(1e-3);
  EXPECT_LE(f.net.current_rate_sum(), 60e6 * (1 + 1e-9));
  f.s.run();
}

INSTANTIATE_TEST_SUITE_P(CrossFlows, UplinkSweep, ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace hm::net
