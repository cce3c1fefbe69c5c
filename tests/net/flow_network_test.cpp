#include "net/flow_network.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"

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
               double* done_at, sim::Simulator* s, double cap = kUnlimitedRate) {
  co_await net->transfer(a, b, bytes, cls, cap);
  *done_at = s->now();
}

TEST(FlowNetwork, SingleFlowRunsAtNicSpeed) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(FlowNetwork, LatencyAddsToCompletion) {
  NetFixture f(1e12, 0.5);
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 1.5, 1e-9);
}

TEST(FlowNetwork, TwoFlowsShareEgressFairly) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic);
  const NodeId b = f.net.add_node(kNic), c = f.net.add_node(kNic);
  double done_b = -1, done_c = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_b, &f.s));
  f.s.spawn(xfer(&f.net, a, c, 100e6, TrafficClass::kMemory, &done_c, &f.s));
  f.s.run();
  // Both share the source NIC (50 MB/s each) and finish together at t=2.
  EXPECT_NEAR(done_b, 2.0, 1e-9);
  EXPECT_NEAR(done_c, 2.0, 1e-9);
}

TEST(FlowNetwork, IngressIsAlsoAConstraint) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  const NodeId d = f.net.add_node(kNic);
  double done_1 = -1, done_2 = -1;
  f.s.spawn(xfer(&f.net, a, d, 100e6, TrafficClass::kMemory, &done_1, &f.s));
  f.s.spawn(xfer(&f.net, b, d, 100e6, TrafficClass::kMemory, &done_2, &f.s));
  f.s.run();
  EXPECT_NEAR(done_1, 2.0, 1e-9);  // d's ingress shared
  EXPECT_NEAR(done_2, 2.0, 1e-9);
}

TEST(FlowNetwork, DisjointPairsDoNotInterfere) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  const NodeId c = f.net.add_node(kNic), d = f.net.add_node(kNic);
  double done_1 = -1, done_2 = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_1, &f.s));
  f.s.spawn(xfer(&f.net, c, d, 100e6, TrafficClass::kMemory, &done_2, &f.s));
  f.s.run();
  EXPECT_NEAR(done_1, 1.0, 1e-9);
  EXPECT_NEAR(done_2, 1.0, 1e-9);
}

TEST(FlowNetwork, FabricCapLimitsAggregate) {
  // 4 disjoint pairs, each NIC 100 MB/s, but fabric only 200 MB/s total.
  NetFixture f(/*fabric=*/200e6);
  std::vector<double> done(4, -1);
  for (int i = 0; i < 4; ++i) {
    const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
    f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done[i], &f.s));
  }
  f.s.run();
  for (double d : done) EXPECT_NEAR(d, 2.0, 1e-9);  // 50 MB/s each
}

TEST(FlowNetwork, PerFlowRateCapHonoured) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_at, &f.s, 25e6));
  f.s.run();
  EXPECT_NEAR(done_at, 4.0, 1e-9);
}

TEST(FlowNetwork, CappedFlowLeavesBandwidthToOthers) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic);
  const NodeId b = f.net.add_node(kNic), c = f.net.add_node(kNic);
  double done_capped = -1, done_free = -1;
  f.s.spawn(xfer(&f.net, a, b, 25e6, TrafficClass::kMemory, &done_capped, &f.s, 25e6));
  f.s.spawn(xfer(&f.net, a, c, 75e6, TrafficClass::kMemory, &done_free, &f.s));
  f.s.run();
  // Max-min: capped flow gets 25, the other picks up the remaining 75.
  EXPECT_NEAR(done_capped, 1.0, 1e-9);
  EXPECT_NEAR(done_free, 1.0, 1e-9);
}

TEST(FlowNetwork, RatesRecomputeWhenFlowJoins) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_1 = -1, done_2 = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_1, &f.s));
  // Second flow joins halfway through the first.
  struct Joiner {
    NetFixture& f;
    NodeId a, b;
    double* done;
    void go() { f.s.spawn(xfer(&f.net, a, b, 50e6, TrafficClass::kMemory, done, &f.s)); }
  } join{f, a, b, &done_2};
  f.s.schedule(0.5, [&join] { join.go(); });
  f.s.run();
  // First: 50 MB at full rate, then shares 50/50: remaining 50 MB takes 1s.
  EXPECT_NEAR(done_1, 1.5, 1e-6);
  // Second: 50 MB at 50 MB/s done at t=1.5 too.
  EXPECT_NEAR(done_2, 1.5, 1e-6);
}

TEST(FlowNetwork, RatesRecomputeWhenFlowLeaves) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_small = -1, done_big = -1;
  f.s.spawn(xfer(&f.net, a, b, 25e6, TrafficClass::kMemory, &done_small, &f.s));
  f.s.spawn(xfer(&f.net, a, b, 125e6, TrafficClass::kMemory, &done_big, &f.s));
  f.s.run();
  // Share 50/50 until small (25MB) finishes at t=0.5; big then gets 100 MB/s
  // for its remaining 100 MB -> 0.5 + 1.0.
  EXPECT_NEAR(done_small, 0.5, 1e-6);
  EXPECT_NEAR(done_big, 1.5, 1e-6);
}

TEST(FlowNetwork, LoopbackDoesNotCountAsTraffic) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, a, 8e9, TrafficClass::kPvfsData, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);  // kLoopbackBps = 8 GB/s
  EXPECT_DOUBLE_EQ(f.net.total_traffic_bytes(), 0.0);
}

TEST(FlowNetwork, TrafficAccountedByClass) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double d1 = -1, d2 = -1, d3 = -1;
  f.s.spawn(xfer(&f.net, a, b, 10e6, TrafficClass::kMemory, &d1, &f.s));
  f.s.spawn(xfer(&f.net, a, b, 20e6, TrafficClass::kStoragePush, &d2, &f.s));
  f.s.spawn(xfer(&f.net, b, a, 30e6, TrafficClass::kStoragePull, &d3, &f.s));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.net.traffic_bytes(TrafficClass::kMemory), 10e6);
  EXPECT_DOUBLE_EQ(f.net.traffic_bytes(TrafficClass::kStoragePush), 20e6);
  EXPECT_DOUBLE_EQ(f.net.traffic_bytes(TrafficClass::kStoragePull), 30e6);
  EXPECT_DOUBLE_EQ(f.net.total_traffic_bytes(), 60e6);
  f.net.reset_traffic();
  EXPECT_DOUBLE_EQ(f.net.total_traffic_bytes(), 0.0);
}

TEST(FlowNetwork, ZeroByteTransferCompletesInstantly) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 0, TrafficClass::kControl, &done_at, &f.s));
  f.s.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
  EXPECT_DOUBLE_EQ(f.net.total_traffic_bytes(), 0.0);
}

sim::Task req_resp(FlowNetwork* net, NodeId a, NodeId b, double* done_at,
                   sim::Simulator* s) {
  co_await net->request_response(a, b, 1e6, 10e6, TrafficClass::kRepoRead);
  *done_at = s->now();
}

TEST(FlowNetwork, RequestResponseIsSequential) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(req_resp(&f.net, a, b, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 0.01 + 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(f.net.traffic_bytes(TrafficClass::kControl), 1e6);
  EXPECT_DOUBLE_EQ(f.net.traffic_bytes(TrafficClass::kRepoRead), 10e6);
}

TEST(FlowNetwork, ActiveFlowIntrospection) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_at, &f.s));
  f.s.run_until(0.5);
  EXPECT_EQ(f.net.active_flows(), 1u);
  EXPECT_NEAR(f.net.flow_rate(a, b), kNic, 1.0);
  f.s.run();
  EXPECT_EQ(f.net.active_flows(), 0u);
}

TEST(FlowNetwork, FlowRateSumsThePairsLiveFlows) {
  // Two capped a->b flows plus an uncapped a->c flow on a's 100 MB/s egress:
  // max-min gives 20, 30 and 50 MB/s (all exact in binary). flow_rate(a,b)
  // walks a's outgoing flows and must sum exactly the pair's two.
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  const NodeId c = f.net.add_node(kNic);
  double done_1 = -1, done_2 = -1, done_3 = -1;
  f.s.spawn(xfer(&f.net, a, b, 20e6, TrafficClass::kMemory, &done_1, &f.s, 20e6));
  f.s.spawn(xfer(&f.net, a, b, 300e6, TrafficClass::kMemory, &done_2, &f.s, 30e6));
  f.s.spawn(xfer(&f.net, a, c, 300e6, TrafficClass::kMemory, &done_3, &f.s));
  f.s.run_until(0.5);
  EXPECT_EQ(f.net.flow_rate(a, b), 20e6 + 30e6);
  EXPECT_EQ(f.net.flow_rate(a, c), 50e6);
  EXPECT_EQ(f.net.flow_rate(b, a), 0.0);
  f.s.run_until(2.0);  // the 20 MB/s flow finished at t=1
  EXPECT_NEAR(done_1, 1.0, 1e-9);
  EXPECT_EQ(f.net.flow_rate(a, b), 30e6);
  f.s.run();
  EXPECT_EQ(f.net.active_flows(), 0u);
  EXPECT_EQ(f.net.flow_rate(a, b), 0.0);
  EXPECT_EQ(f.net.flow_rate(a, c), 0.0);
}

// Property-style sweep: with N equal flows through one bottleneck, each gets
// capacity/N and total rate never exceeds capacity.
class FairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(FairnessSweep, EqualSharesAndConservation) {
  const int n = GetParam();
  NetFixture f;
  const NodeId src = f.net.add_node(kNic);
  std::vector<double> done(n, -1);
  for (int i = 0; i < n; ++i) {
    const NodeId dst = f.net.add_node(kNic);
    f.s.spawn(xfer(&f.net, src, dst, 10e6, TrafficClass::kMemory, &done[i], &f.s));
  }
  f.s.run_until(1e-3);
  EXPECT_LE(f.net.current_rate_sum(), kNic * (1 + 1e-9));
  EXPECT_NEAR(f.net.current_rate_sum(), kNic, kNic * 1e-6);
  f.s.run();
  const double expect_t = 10e6 * n / kNic;
  for (double d : done) EXPECT_NEAR(d, expect_t, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Shares, FairnessSweep, ::testing::Values(1, 2, 3, 5, 8, 16, 37));

// --- Epoch batching ---------------------------------------------------------

TEST(FlowNetwork, BurstSettlesWithExactlyOneRecompute) {
  NetFixture f;
  const NodeId src = f.net.add_node(kNic);
  std::vector<NodeId> dsts;
  for (int i = 0; i < 32; ++i) dsts.push_back(f.net.add_node(kNic));
  std::vector<double> done(32, -1);
  for (int i = 0; i < 32; ++i)
    f.s.spawn(xfer(&f.net, src, dsts[i], 1e6, TrafficClass::kStoragePush, &done[i], &f.s));
  EXPECT_EQ(f.net.recompute_count(), 0u);
  f.s.run_until(0.0);  // all inserts at t=0 plus the single settle event
  EXPECT_EQ(f.net.active_flows(), 32u);
  EXPECT_EQ(f.net.recompute_count(), 1u);
  EXPECT_FALSE(f.net.settle_pending());
  EXPECT_NEAR(f.net.current_rate_sum(), kNic, kNic * 1e-6);
  f.s.run();
  const double expect_t = 1e6 * 32 / kNic;
  for (double d : done) EXPECT_NEAR(d, expect_t, 1e-6);
  // Equal flows drain together: the whole epoch completes on one more solve.
  EXPECT_EQ(f.net.recompute_count(), 2u);
  EXPECT_EQ(f.net.active_flows(), 0u);
}

TEST(FlowNetwork, SettlePendingVisibleBetweenInsertAndSolve) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_at, &f.s));
  f.s.step();  // coroutine start; suspends on the latency delay
  EXPECT_EQ(f.net.active_flows(), 0u);
  f.s.step();  // flow inserted; solve deferred to the settle event
  EXPECT_EQ(f.net.active_flows(), 1u);
  EXPECT_TRUE(f.net.settle_pending());
  EXPECT_EQ(f.net.recompute_count(), 0u);
  f.s.step();  // settle: one solve for the epoch
  EXPECT_FALSE(f.net.settle_pending());
  EXPECT_EQ(f.net.recompute_count(), 1u);
  EXPECT_NEAR(f.net.flow_rate(a, b), kNic, 1.0);
  f.s.run();
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(FlowNetwork, SeparateTimestampsAreSeparateEpochs) {
  NetFixture f;
  const NodeId src = f.net.add_node(kNic);
  std::vector<NodeId> dsts;
  for (int i = 0; i < 8; ++i) dsts.push_back(f.net.add_node(kNic));
  std::vector<double> done(8, -1);
  for (int i = 0; i < 4; ++i)
    f.s.spawn(xfer(&f.net, src, dsts[i], 100e6, TrafficClass::kMemory, &done[i], &f.s));
  struct SecondWave {
    NetFixture& f;
    NodeId src;
    std::vector<NodeId>& dsts;
    std::vector<double>& done;
    void go() {
      for (int i = 4; i < 8; ++i)
        f.s.spawn(xfer(&f.net, src, dsts[i], 100e6, TrafficClass::kMemory, &done[i], &f.s));
    }
  } wave{f, src, dsts, done};
  f.s.schedule(0.25, [&wave] { wave.go(); });
  f.s.run_until(0.3);
  EXPECT_EQ(f.net.active_flows(), 8u);
  EXPECT_EQ(f.net.recompute_count(), 2u);  // one solve per arrival epoch
}

// --- Lazy completion-heap invalidation --------------------------------------

TEST(FlowNetwork, StaleCompletionEntryDoesNotFireEarly) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_1 = -1, done_2 = -1;
  // Alone, the first flow projects completion at t=1; the joiner at t=0.5
  // halves its rate, so that heap entry is stale and must be discarded when
  // popped instead of completing the flow at the old time.
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_1, &f.s));
  struct Joiner {
    NetFixture& f;
    NodeId a, b;
    double* done;
    void go() { f.s.spawn(xfer(&f.net, a, b, 50e6, TrafficClass::kMemory, done, &f.s)); }
  } join{f, a, b, &done_2};
  f.s.schedule(0.5, [&join] { join.go(); });
  f.s.run_until(1.0);
  EXPECT_EQ(f.net.active_flows(), 2u);  // the t=1 projection was invalidated
  EXPECT_DOUBLE_EQ(done_1, -1);
  f.s.run();
  EXPECT_NEAR(done_1, 1.5, 1e-6);
  EXPECT_NEAR(done_2, 1.5, 1e-6);
}

TEST(FlowNetwork, CompletionHeapSurvivesSlotReuse) {
  // Sequential transfers recycle flow slot 0; releasing a slot erases its
  // completion entry, so nothing left from an earlier occupant can
  // terminate the current one.
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double done_at = -1;
  f.s.spawn([](FlowNetwork* net, NodeId x, NodeId y, double* d,
               sim::Simulator* s) -> sim::Task {
    for (int i = 0; i < 5; ++i)
      co_await net->transfer(x, y, 10e6, TrafficClass::kMemory);
    *d = s->now();
  }(&f.net, a, b, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 0.5, 1e-6);
  // Each flow is its own epoch: arrival solve + completion solve.
  EXPECT_EQ(f.net.recompute_count(), 10u);
  EXPECT_EQ(f.net.active_flows(), 0u);
}

sim::Task xfer_tagged(FlowNetwork* net, NodeId a, NodeId b, double bytes, int tag,
                      std::vector<int>* order, double* done_at, sim::Simulator* s) {
  co_await net->transfer(a, b, bytes, TrafficClass::kMemory);
  order->push_back(tag);
  *done_at = s->now();
}

// Flows that project the same completion time post their ops in ascending
// slot order, even when the solver re-keyed their entries (rate churn)
// inside an escalated global solve and the slots were handed out in the
// reverse of arrival order. Four warm-up flows finish one after another and
// free slots 0..3 in that order, so the free list hands X0..X3 slots 3, 2,
// 1, 0.
TEST(FlowNetwork, SimultaneousCompletionsPostInSlotOrder) {
  NetFixture f(/*fabric=*/200e6);
  std::vector<NodeId> src, dst;
  for (int i = 0; i < 5; ++i) {
    src.push_back(f.net.add_node(kNic));
    dst.push_back(f.net.add_node(kNic));
  }
  std::vector<int> order;
  double warm[4], done[4], bg = -1;
  // Disjoint pairs, each alone at 100 MB/s, oversubscribe the 200 MB/s
  // fabric: the epoch escalates and the flows share it equally.
  for (int i = 0; i < 4; ++i)
    f.s.spawn(xfer(&f.net, src[i], dst[i], 5e6 * (i + 1), TrafficClass::kMemory, &warm[i],
                   &f.s));
  struct Churn {
    NetFixture& f;
    std::vector<NodeId>& src;
    std::vector<NodeId>& dst;
    std::vector<int>& order;
    double* done;
    double* bg;
    void start_xs() {
      for (int i = 0; i < 4; ++i)
        f.s.spawn(xfer_tagged(&f.net, src[i], dst[i], 25e6, i, &order, &done[i], &f.s));
    }
    void start_bg() {
      f.s.spawn(xfer(&f.net, src[4], dst[4], 5e6, TrafficClass::kMemory, bg, &f.s));
    }
  } churn{f, src, dst, order, done, &bg};
  f.s.schedule(1.0, [&churn] { churn.start_xs(); });
  // A fifth flow joins and leaves mid-way: 50 -> 40 -> 50 MB/s for X0..X3.
  f.s.schedule(1.05, [&churn] { churn.start_bg(); });
  f.s.run();
  EXPECT_NEAR(warm[0], 0.1, 1e-9);
  EXPECT_NEAR(warm[1], 0.175, 1e-9);
  EXPECT_NEAR(warm[2], 0.225, 1e-9);
  EXPECT_NEAR(warm[3], 0.275, 1e-9);
  EXPECT_NEAR(bg, 1.175, 1e-9);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(done[i], done[0]);
  EXPECT_NEAR(done[0], 1.525, 1e-9);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_GT(f.net.escalation_count(), 0u);
}

// A flow stalled at rate 0 holds no completion entry: once its neighbour
// finishes no timer is left and the queue drains with the flow still live.
// When the capacity returns it completes at the re-projected time.
TEST(FlowNetwork, StalledFlowHasNoEntryAndCompletesWhenCapacityReturns) {
  NetFixture f(/*fabric=*/150e6);
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  const NodeId c = f.net.add_node(kNic), d = f.net.add_node(kNic);
  double done_ab = -1, done_cd = -1;
  // Both alone would run at 100 MB/s: the 150 MB/s fabric escalates the
  // epoch and splits it 75/75.
  f.s.spawn(xfer(&f.net, a, b, 100e6, TrafficClass::kMemory, &done_ab, &f.s));
  f.s.spawn(xfer(&f.net, c, d, 30e6, TrafficClass::kMemory, &done_cd, &f.s));
  struct Flap {
    FlowNetwork& net;
    NodeId n;
    void go() { net.set_link_flapped(n, true); }
  } flap{f.net, a};
  f.s.schedule(0.1, [&flap] { flap.go(); });  // a->b stalls with 92.5 MB left
  f.s.run();
  EXPECT_GT(f.net.escalation_count(), 0u);
  EXPECT_NEAR(done_cd, 0.325, 1e-9);  // 22.5 MB at the full 100 MB/s
  EXPECT_EQ(done_ab, -1);
  EXPECT_EQ(f.net.active_flows(), 1u);
  EXPECT_EQ(f.s.pending_events(), 0u);
  EXPECT_NEAR(f.s.now(), 0.325, 1e-9);
  f.net.set_link_flapped(a, false);
  f.s.run();
  EXPECT_NEAR(done_ab, 0.325 + 0.925, 1e-9);
  EXPECT_EQ(f.net.active_flows(), 0u);
}

TEST(FlowNetwork, FlowCountersTrackStarts) {
  NetFixture f;
  const NodeId a = f.net.add_node(kNic), b = f.net.add_node(kNic);
  double d1 = -1, d2 = -1;
  f.s.spawn(xfer(&f.net, a, b, 1e6, TrafficClass::kMemory, &d1, &f.s));
  f.s.spawn(xfer(&f.net, b, a, 1e6, TrafficClass::kMemory, &d2, &f.s));
  f.s.run();
  EXPECT_EQ(f.net.flows_started(), 2u);
}

// Max-min correctness on an asymmetric topology: one flow constrained by a
// slow ingress must not reduce what an unconstrained flow receives.
TEST(FlowNetwork, MaxMinNotJustEqualSplit) {
  NetFixture f;
  const NodeId src = f.net.add_node(kNic);
  const NodeId slow = f.net.add_node(kNic, /*ingress=*/20e6);
  const NodeId fast = f.net.add_node(kNic);
  double done_slow = -1, done_fast = -1;
  f.s.spawn(xfer(&f.net, src, slow, 20e6, TrafficClass::kMemory, &done_slow, &f.s));
  f.s.spawn(xfer(&f.net, src, fast, 80e6, TrafficClass::kMemory, &done_fast, &f.s));
  f.s.run();
  // slow: 20 MB at 20 MB/s = 1s; fast: 80 MB at 80 MB/s = 1s.
  EXPECT_NEAR(done_slow, 1.0, 1e-6);
  EXPECT_NEAR(done_fast, 1.0, 1e-6);
}

// Bytes remaining and rates live in dense per-slot arrays that the byte
// advance sweeps whole, dead slots included; a dead slot is inert because
// its rate is 0. Run A frees two slots before the probe flows start, one by
// completion (remaining ~0) and one by a crash (remaining left mid-flight),
// so the probes land in those recycled slots. Run B starts the same probes
// in fresh slots. The probes must finish at exactly the same times.
struct SlotReuseRun {
  double probe_done[2] = {-1, -1};
  std::vector<int> order;
  double rate_sum_after_history = -1;
  double crashed_pair_rate = -1;
};

SlotReuseRun run_slot_reuse(bool with_history) {
  NetFixture f;
  std::vector<NodeId> n;
  for (int i = 0; i < 10; ++i) n.push_back(f.net.add_node(kNic));
  double done_long = -1, done_short = -1, done_crashed = -1;
  SlotReuseRun out;
  if (with_history) {
    f.s.spawn(xfer(&f.net, n[0], n[1], 10e6, TrafficClass::kMemory, &done_short, &f.s));
    f.s.spawn(xfer(&f.net, n[2], n[3], 500e6, TrafficClass::kMemory, &done_crashed, &f.s));
  }
  // A long flow that stays live across the whole run in both runs.
  f.s.spawn(xfer(&f.net, n[4], n[5], 200e6, TrafficClass::kMemory, &done_long, &f.s));
  struct Script {
    NetFixture& f;
    std::vector<NodeId>& n;
    SlotReuseRun& out;
    void crash() { f.net.set_node_up(n[3], false); }
    void observe() {
      out.rate_sum_after_history = f.net.current_rate_sum();
      out.crashed_pair_rate = f.net.flow_rate(n[2], n[3]);
    }
    void probes() {
      for (int i = 0; i < 2; ++i)
        f.s.spawn(xfer_tagged(&f.net, n[6 + 2 * i], n[7 + 2 * i], 30e6, i, &out.order,
                              &out.probe_done[i], &f.s));
    }
  } script{f, n, out};
  if (with_history) f.s.schedule(0.2, [&script] { script.crash(); });
  f.s.schedule(0.3, [&script] { script.observe(); });
  f.s.schedule(0.5, [&script] { script.probes(); });
  f.s.run();
  if (with_history) {
    EXPECT_NEAR(done_short, 0.1, 1e-9);
    EXPECT_NEAR(done_crashed, 0.2, 1e-9);
  }
  EXPECT_NEAR(done_long, 2.0, 1e-9);
  EXPECT_EQ(f.net.active_flows(), 0u);
  return out;
}

TEST(FlowNetwork, RecycledSlotsCompleteLikeFreshOnes) {
  const SlotReuseRun recycled = run_slot_reuse(true);
  const SlotReuseRun fresh = run_slot_reuse(false);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(fresh.probe_done[i], 0.8, 1e-9);
    EXPECT_EQ(recycled.probe_done[i], fresh.probe_done[i]);
  }
  // Equal completions post in slot order. The free list hands the probes
  // the crashed slot (1) and then the completed one (0), so in run A the
  // second probe holds the lower slot; in run B they follow the long flow.
  EXPECT_EQ(recycled.order, (std::vector<int>{1, 0}));
  EXPECT_EQ(fresh.order, (std::vector<int>{0, 1}));
}

TEST(FlowNetwork, CurrentRateSumIgnoresDeadSlots) {
  // After one completion and one crash only the long flow is live: the two
  // dead slots must add nothing, whatever bytes they were left holding.
  const SlotReuseRun recycled = run_slot_reuse(true);
  EXPECT_EQ(recycled.rate_sum_after_history, kNic);
  EXPECT_EQ(recycled.crashed_pair_rate, 0.0);
  const SlotReuseRun fresh = run_slot_reuse(false);
  EXPECT_EQ(fresh.rate_sum_after_history, kNic);
}

}  // namespace
}  // namespace hm::net
