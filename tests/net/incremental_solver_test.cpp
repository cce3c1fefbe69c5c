// Incremental-vs-full solver equivalence: the component-scoped solver must
// produce byte-identical rate streams and completion times to re-solving
// every component each epoch (FlowNetworkConfig::incremental = false),
// across randomized flow churn on several topology shapes — flat, unlimited
// fabric, fabric-bound (escalation), oversubscribed switch groups, per-flow
// caps, finite fabrics and uplinks under NIC degrade/restore — across the
// settle-worklist edge cases: slot reuse within one instant, crashes racing
// arrivals, nodes added under load, escalation and split-back — and across
// staggered arrival-only and departure epochs, whose solver counters must
// also repeat exactly across reruns. Also covers the component
// introspection hooks the benches report, the shared-constraint capacity
// certificate (which epochs skip the usage walk, and that a real violation
// still escalates), the fabric violation certificate (which escalations it
// proves, and the cases it must leave to the walk) and the escalation's
// bulk completion-heap re-key under link flaps.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/flow_network.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace hm::net {
namespace {

struct FlowSpec {
  double start;
  NodeId src;
  NodeId dst;
  double bytes;
  double cap;
};

struct Topology {
  double fabric = 1e12;
  std::vector<double> uplinks;          // one switch group per entry
  std::vector<SwitchGroupId> node_group;  // group index per node (0 = flat)
  std::vector<double> nic;              // per-node NIC
};

/// Timed topology/fault change, replayed identically in both arms.
struct NetEvent {
  enum Kind { kCrash, kReboot, kAddNode, kScale, kFlap, kUnflap };
  double t;
  Kind kind;
  NodeId node = 0;   // crash/reboot/scale target
  double nic = 0.0;  // capacity of an added node; NIC multiplier of a scale
  // Zero-delay yields before applying: one is enough to land behind the
  // same-instant arrivals but ahead of their settle.
  int yields = 0;
};

struct RunLog {
  std::vector<double> completions;       // per flow (spec order); -t = failed at t
  std::vector<double> rate_samples;      // flow_rate(src,dst) probes
  std::vector<std::size_t> components;   // component_count() per probe
  int crashes_racing_arrivals = 0;       // crashes hitting an unsettled epoch
  std::uint64_t recomputes = 0;
  std::uint64_t touched = 0;
  std::uint64_t escalations = 0;
  std::uint64_t solved_components = 0;
  std::uint64_t walks = 0;      // validation_walk_count()
  std::uint64_t certified = 0;  // certified_epoch_count()
  std::uint64_t proven = 0;     // proven_escalation_count()
};

sim::Task run_flow(FlowNetwork* net, const FlowSpec* f, double* done_at,
                   sim::Simulator* s) {
  const bool ok =
      co_await net->transfer(f->src, f->dst, f->bytes, TrafficClass::kMemory, f->cap);
  *done_at = ok ? s->now() : -s->now();
}

RunLog run_scenario(const Topology& topo, const std::vector<FlowSpec>& flows,
                    bool incremental, const std::vector<NetEvent>& events = {}) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{topo.fabric, 0.0, incremental});
  std::vector<SwitchGroupId> groups;
  for (double up : topo.uplinks) groups.push_back(net.add_switch_group(up));
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < topo.nic.size(); ++i) {
    const SwitchGroupId g =
        topo.node_group.empty() ? 0 : groups[topo.node_group[i]];
    nodes.push_back(net.add_node(topo.nic[i], g));
  }

  RunLog log;
  log.completions.assign(flows.size(), -1.0);
  // Scenario context behind one pointer: schedule callbacks must fit
  // a timer's two-word capture budget.
  struct Ctx {
    sim::Simulator& s;
    FlowNetwork& net;
    const std::vector<FlowSpec>& flows;
    std::vector<NodeId>& nodes;
    RunLog& log;
    void launch(std::size_t i) {
      s.spawn(run_flow(&net, &flows[i], &log.completions[i], &s));
    }
    void fire(const NetEvent& e) {
      if (e.yields == 0) return apply(e);
      s.spawn([](Ctx* c, const NetEvent* ev) -> sim::Task {
        for (int i = 0; i < ev->yields; ++i) co_await c->s.yield();
        c->apply(*ev);
      }(this, &e));
    }
    void apply(const NetEvent& e) {
      switch (e.kind) {
        case NetEvent::kCrash:
          if (net.settle_pending()) ++log.crashes_racing_arrivals;
          net.set_node_up(e.node, false);
          break;
        case NetEvent::kReboot: net.set_node_up(e.node, true); break;
        case NetEvent::kAddNode: nodes.push_back(net.add_node(e.nic)); break;
        case NetEvent::kScale: net.scale_node_capacity(e.node, e.nic, e.nic); break;
        case NetEvent::kFlap: net.set_link_flapped(e.node, true); break;
        case NetEvent::kUnflap: net.set_link_flapped(e.node, false); break;
      }
    }
    void probe() {
      for (NodeId a = 0; a < nodes.size(); ++a)
        for (NodeId b = 0; b < nodes.size(); ++b)
          if (a != b) log.rate_samples.push_back(net.flow_rate(a, b));
      log.components.push_back(net.component_count());
    }
  } ctx{s, net, flows, nodes, log};
  for (std::size_t i = 0; i < flows.size(); ++i) {
    s.schedule(flows[i].start, [c = &ctx, i] { c->launch(i); });
  }
  // Scheduled after the flows, so an event fires behind the same-instant
  // launches (identically in both arms).
  for (const NetEvent& e : events) {
    s.schedule(e.t, [c = &ctx, ev = &e] { c->fire(*ev); });
  }
  // Probe the full pair-rate matrix at fixed virtual times: these reads hit
  // the cached rates of clean components, which is exactly what must be
  // byte-identical between the ablation arms.
  for (int probe = 1; probe <= 8; ++probe) {
    s.schedule(probe * 0.7, [c = &ctx] { c->probe(); });
  }
  s.run();
  log.recomputes = net.recompute_count();
  log.touched = net.touched_flow_count();
  log.escalations = net.escalation_count();
  log.solved_components = net.solved_component_count();
  log.walks = net.validation_walk_count();
  log.certified = net.certified_epoch_count();
  log.proven = net.proven_escalation_count();
  EXPECT_EQ(net.active_flows(), 0u);
  return log;
}

std::vector<FlowSpec> random_flows(std::size_t n_flows, std::size_t n_nodes,
                                   bool with_caps, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < n_flows; ++i) {
    FlowSpec f;
    // Quantized start times force multi-arrival epochs (the batching path).
    f.start = 0.25 * static_cast<double>(rng.uniform(24));
    f.src = static_cast<NodeId>(rng.uniform(n_nodes));
    do {
      f.dst = static_cast<NodeId>(rng.uniform(n_nodes));
    } while (f.dst == f.src);
    f.bytes = 1e5 + rng.uniform_real(0.0, 4e7);
    f.cap = (with_caps && rng.uniform(3) == 0) ? rng.uniform_real(5e6, 60e6)
                                               : kUnlimitedRate;
    flows.push_back(f);
  }
  return flows;
}

void expect_identical(const RunLog& inc, const RunLog& full) {
  ASSERT_EQ(inc.completions.size(), full.completions.size());
  for (std::size_t i = 0; i < inc.completions.size(); ++i)
    EXPECT_EQ(inc.completions[i], full.completions[i]) << "flow " << i;
  ASSERT_EQ(inc.rate_samples.size(), full.rate_samples.size());
  for (std::size_t i = 0; i < inc.rate_samples.size(); ++i)
    EXPECT_EQ(inc.rate_samples[i], full.rate_samples[i]) << "sample " << i;
  // Identical completion times => identical epoch structure.
  EXPECT_EQ(inc.recomputes, full.recomputes);
}

Topology flat_topology(std::size_t n_nodes, double fabric = 1e12) {
  Topology t;
  t.fabric = fabric;
  t.nic.assign(n_nodes, 100e6);
  return t;
}

TEST(IncrementalSolver, EquivalentOnFlatTopology) {
  const Topology topo = flat_topology(16);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto flows = random_flows(150, topo.nic.size(), false, seed);
    const RunLog inc = run_scenario(topo, flows, true);
    const RunLog full = run_scenario(topo, flows, false);
    expect_identical(inc, full);
    // The flat runs decompose well: incremental must do strictly less work.
    EXPECT_LT(inc.touched, full.touched) << "seed " << seed;
  }
}

TEST(IncrementalSolver, EquivalentUnderSaturatedFabric) {
  // Fabric far below aggregate NIC demand: shared-constraint validation
  // fails continuously and epochs escalate to the global solve.
  const Topology topo = flat_topology(16, /*fabric=*/250e6);
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto flows = random_flows(120, topo.nic.size(), false, seed);
    const RunLog inc = run_scenario(topo, flows, true);
    const RunLog full = run_scenario(topo, flows, false);
    expect_identical(inc, full);
    EXPECT_GT(inc.escalations, 0u);
  }
}

TEST(IncrementalSolver, EquivalentOnOversubscribedSwitches) {
  Topology topo;
  topo.fabric = 1e12;
  topo.uplinks = {120e6, 120e6, 120e6, 120e6};
  topo.nic.assign(16, 100e6);
  topo.node_group.resize(16);
  for (std::size_t i = 0; i < 16; ++i) topo.node_group[i] = i / 4;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    const auto flows = random_flows(120, topo.nic.size(), false, seed);
    expect_identical(run_scenario(topo, flows, true),
                     run_scenario(topo, flows, false));
  }
}

TEST(IncrementalSolver, EquivalentWithPerFlowCaps) {
  const Topology topo = flat_topology(12);
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    const auto flows = random_flows(140, topo.nic.size(), true, seed);
    expect_identical(run_scenario(topo, flows, true),
                     run_scenario(topo, flows, false));
  }
}

TEST(IncrementalSolver, EquivalentWithHeterogeneousNics) {
  Topology topo;
  topo.fabric = 1e12;
  sim::Rng rng(7);
  for (int i = 0; i < 14; ++i) topo.nic.push_back(rng.uniform_real(20e6, 200e6));
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    const auto flows = random_flows(140, topo.nic.size(), true, seed);
    expect_identical(run_scenario(topo, flows, true),
                     run_scenario(topo, flows, false));
  }
}

// --- settle-worklist edge cases ----------------------------------------------

TEST(IncrementalSolver, EquivalentWithUnlimitedFabric) {
  // No finite shared constraint at all (no switch groups, unlimited fabric):
  // the shared-usage validation is skipped outright.
  const Topology topo = flat_topology(16, kUnlimitedRate);
  for (std::uint64_t seed = 51; seed <= 53; ++seed) {
    const auto flows = random_flows(150, topo.nic.size(), true, seed);
    const RunLog inc = run_scenario(topo, flows, true);
    const RunLog full = run_scenario(topo, flows, false);
    expect_identical(inc, full);
    EXPECT_EQ(inc.escalations, 0u);
    EXPECT_LT(inc.touched, full.touched) << "seed " << seed;
  }
}

TEST(IncrementalSolver, EquivalentWhenSlotsAreReusedWithinAnInstant) {
  // Eight disjoint pairs each run a back-to-back chain of flows at the full
  // 100 MB/s NIC rate; byte counts are multiples of 25 MB, so every link's
  // completion lands exactly on the next link's arrival and the freed slot
  // is reused in the same instant. Long background flows on other nodes
  // keep the dirty region small relative to the live set.
  Topology topo = flat_topology(24);
  std::vector<FlowSpec> flows;
  sim::Rng rng(61);
  for (NodeId p = 0; p < 8; ++p) {
    double t = 0.25 * static_cast<double>(rng.uniform(4));
    for (int link = 0; link < 6; ++link) {
      const double bytes = 25e6 * static_cast<double>(1 + rng.uniform(4));
      flows.push_back(FlowSpec{t, 2 * p, 2 * p + 1, bytes, kUnlimitedRate});
      t += bytes / 100e6;
    }
  }
  for (NodeId n = 16; n < 24; ++n)
    flows.push_back(FlowSpec{0.0, n, n == 23 ? 16 : n + 1, 4e8, kUnlimitedRate});
  const RunLog inc = run_scenario(topo, flows, true);
  const RunLog full = run_scenario(topo, flows, false);
  expect_identical(inc, full);
  EXPECT_LT(inc.touched, full.touched);
}

TEST(IncrementalSolver, EquivalentWhenCrashRacesSameInstantArrivals) {
  // Quantized starts put arrivals at every crash/reboot instant; the crash
  // yields behind them so it lands on an unsettled epoch (the inline solve
  // must cover both the failed flows and the pending arrivals).
  const Topology topo = flat_topology(12);
  const std::vector<NetEvent> events = {
      {1.0, NetEvent::kCrash, 3, 0.0, 1},  {1.5, NetEvent::kReboot, 3},
      {2.5, NetEvent::kCrash, 7, 0.0, 1},  {2.5, NetEvent::kCrash, 3, 0.0, 1},
      {3.0, NetEvent::kReboot, 7},         {4.0, NetEvent::kReboot, 3},
  };
  for (std::uint64_t seed = 71; seed <= 73; ++seed) {
    const auto flows = random_flows(140, topo.nic.size(), true, seed);
    const RunLog inc = run_scenario(topo, flows, true, events);
    const RunLog full = run_scenario(topo, flows, false, events);
    expect_identical(inc, full);
    EXPECT_GT(inc.crashes_racing_arrivals, 0) << "seed " << seed;
    int failed = 0;
    for (const double t : inc.completions) failed += t < 0 ? 1 : 0;
    EXPECT_GT(failed, 0) << "seed " << seed;
  }
}

TEST(IncrementalSolver, EquivalentWhenNodesAreAddedUnderLoad) {
  // Four nodes join at t=1 while flows are live (a topology change
  // mid-run: every incidence is recomputed); flows touching them start
  // later. Switch groups keep a finite shared constraint in play.
  Topology topo;
  topo.fabric = 1e12;
  topo.uplinks = {150e6, 150e6};
  topo.nic.assign(8, 100e6);
  topo.node_group = {0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<NetEvent> events;
  for (int i = 0; i < 4; ++i) events.push_back({1.0, NetEvent::kAddNode, 0, 100e6});
  for (std::uint64_t seed = 81; seed <= 83; ++seed) {
    auto flows = random_flows(120, 12, true, seed);
    for (FlowSpec& f : flows)
      if (f.src >= 8 || f.dst >= 8) f.start = std::max(f.start, 1.25);
    const RunLog inc = run_scenario(topo, flows, true, events);
    const RunLog full = run_scenario(topo, flows, false, events);
    expect_identical(inc, full);
  }
}

TEST(IncrementalSolver, EscalatesThenSplitsBack) {
  // Three NIC-disjoint flows over-demand the 250 MB/s fabric: the epoch
  // escalates and merges them. When the short one leaves, the survivors fit
  // and the re-solve splits the mega-component back into two; a later
  // arrival re-escalates from the worklist path.
  const Topology topo = flat_topology(6, /*fabric=*/250e6);
  const std::vector<FlowSpec> flows = {
      {0.0, 0, 1, 1000e6, kUnlimitedRate},
      {0.0, 2, 3, 1000e6, kUnlimitedRate},
      {0.0, 4, 5, 50e6, kUnlimitedRate},   // done at 0.6 s
      {1.0, 4, 5, 400e6, kUnlimitedRate},  // re-escalates
  };
  const RunLog inc = run_scenario(topo, flows, true);
  const RunLog full = run_scenario(topo, flows, false);
  expect_identical(inc, full);
  EXPECT_GE(inc.escalations, 2u);
  ASSERT_GE(inc.components.size(), 2u);
  EXPECT_EQ(inc.components[0], 2u);  // t=0.7: split back
  EXPECT_EQ(inc.components[1], 1u);  // t=1.4: merged again
}

// --- staggered arrival and departure epochs ------------------------------

/// One flow per disjoint (2i -> 2i+1) node pair, started at `starts[i]`.
std::vector<FlowSpec> staggered_pairs(const std::vector<double>& starts, double bytes) {
  std::vector<FlowSpec> flows;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto src = static_cast<NodeId>(2 * i);
    flows.push_back(FlowSpec{starts[i], src, src + 1, bytes, kUnlimitedRate});
  }
  return flows;
}

TEST(IncrementalSolver, EquivalentForStaggeredArrivals) {
  // Big flows, staggered arrivals: every arrival epoch after the first sees
  // no departure, so membership only ever grows until the completions.
  const std::vector<double> starts = {0.0, 1.0, 2.0, 3.0};
  const Topology topo = flat_topology(2 * starts.size(), kUnlimitedRate);
  const auto flows = staggered_pairs(starts, 800e6);
  const RunLog inc = run_scenario(topo, flows, true);
  expect_identical(inc, run_scenario(topo, flows, false));
  for (const double t : inc.completions) EXPECT_GT(t, 3.0);
}

TEST(IncrementalSolver, EquivalentWhenDeparturesShrinkAComponent) {
  // A long-lived A plus two short flows B and C sharing its egress NIC (n0):
  // each arrives while A is live and departs before the next arrival, so the
  // surviving component shrinks back to A twice.
  const Topology topo = flat_topology(3, kUnlimitedRate);
  const std::vector<FlowSpec> flows = {
      {0.0, 0, 1, 800e6, kUnlimitedRate},
      {1.0, 0, 2, 30e6, kUnlimitedRate},
      {3.0, 0, 2, 30e6, kUnlimitedRate},
  };
  const RunLog inc = run_scenario(topo, flows, true);
  expect_identical(inc, run_scenario(topo, flows, false));
  // B and C finished while A was still draining; A finished last.
  EXPECT_GT(inc.completions[0], inc.completions[1]);
  EXPECT_GT(inc.completions[0], inc.completions[2]);
  EXPECT_GT(inc.completions[2], inc.completions[1]);
}

TEST(IncrementalSolver, IdenticalCountersAcrossReruns) {
  const std::vector<double> starts = {0.0, 0.5, 0.5, 2.0, 2.0, 2.5};
  const Topology topo = flat_topology(2 * starts.size(), kUnlimitedRate);
  const auto flows = staggered_pairs(starts, 600e6);
  const RunLog a = run_scenario(topo, flows, true);
  const RunLog b = run_scenario(topo, flows, true);
  expect_identical(a, b);
  EXPECT_EQ(a.solved_components, b.solved_components);
  EXPECT_EQ(a.touched, b.touched);
  EXPECT_EQ(a.escalations, b.escalations);
}

// --- shared-constraint capacity certificate --------------------------------

TEST(IncrementalSolver, NonBindingFiniteFabricNeverWalks) {
  // At most 150 flows of 100 MB/s NICs: a fabric of twice their sum can
  // never bind, so every epoch certifies. Rates and completion times are
  // those of the same flows on an unlimited fabric.
  for (std::uint64_t seed = 91; seed <= 93; ++seed) {
    const auto flows = random_flows(150, 16, true, seed);
    const RunLog finite = run_scenario(flat_topology(16, 2 * 150 * 100e6), flows, true);
    const RunLog unlimited = run_scenario(flat_topology(16, kUnlimitedRate), flows, true);
    expect_identical(finite, unlimited);
    EXPECT_EQ(finite.walks, 0u) << "seed " << seed;
    EXPECT_GT(finite.certified, 0u) << "seed " << seed;
    EXPECT_EQ(finite.escalations, 0u) << "seed " << seed;
    expect_identical(finite, run_scenario(flat_topology(16, 2 * 150 * 100e6), flows, false));
  }
}

/// Two racks behind 1.25 GB/s uplinks, 117.5 MB/s NICs: twelve long
/// cross-rack flows (more users than the uplink certifies: 1.25e9 / 117.5e6
/// = 10.6) plus ten short cross-rack flows arriving one at a time.
std::vector<FlowSpec> binding_uplink_flows() {
  std::vector<FlowSpec> flows;
  for (NodeId i = 0; i < 12; ++i) flows.push_back(FlowSpec{0.0, i, 16 + i, 1e9, kUnlimitedRate});
  for (NodeId k = 0; k < 10; ++k)
    flows.push_back(FlowSpec{0.5 + 0.5 * k, 12 + k % 4, 28 + k % 4, 20e6, kUnlimitedRate});
  return flows;
}

TEST(IncrementalSolver, BindingUplinkWalksEverySolvingEpoch) {
  Topology topo;
  topo.fabric = kUnlimitedRate;
  topo.uplinks = {1.25e9, 1.25e9};
  topo.nic.assign(32, 117.5e6);
  topo.node_group.resize(32);
  for (std::size_t i = 0; i < 32; ++i) topo.node_group[i] = i / 16;
  const auto flows = binding_uplink_flows();
  const RunLog inc = run_scenario(topo, flows, true);
  expect_identical(inc, run_scenario(topo, flows, false));
  // Twelve or more uplink users throughout: nothing certifies.
  EXPECT_EQ(inc.certified, 0u);
  EXPECT_GT(inc.walks, 0u);
  // The count the walk-every-epoch solver produced for this scenario: the
  // first epoch, then every short flow's arrival and departure.
  EXPECT_EQ(inc.escalations, 21u);
}

sim::Task xfer(FlowNetwork* net, NodeId a, NodeId b, double bytes);

TEST(IncrementalSolver, RaisedNicCapacityStopsCertifyingAndEscalates) {
  // Four 100 MB/s flows on NIC-disjoint pairs under a 420 MB/s fabric:
  // 4 x 100 MB/s fits, so the epochs certify. Raising one flow's source
  // egress and sink ingress lifts max_nic past what the fabric certifies
  // for four users, and the raised flow really does over-demand the
  // fabric: the walk runs and escalates. The restore brings max_nic back
  // and the epochs certify again.
  for (const double f : {1 / 0.4, 1.5}) {
    sim::Simulator s;
    FlowNetwork net(s, FlowNetworkConfig{420e6, 0.0});
    for (int i = 0; i < 8; ++i) net.add_node(100e6);
    for (NodeId i = 0; i < 4; ++i) s.spawn(xfer(&net, i, 4 + i, 1e9));
    s.run_until(0.5);
    // A degrade and its 1/0.4 restore leave max_nic where it was.
    net.scale_node_capacity(1, 0.4, 0.4);
    s.run_until(0.6);
    net.scale_node_capacity(1, 1 / 0.4, 1 / 0.4);
    s.run_until(1.0);
    EXPECT_EQ(net.validation_walk_count(), 0u) << "f " << f;
    EXPECT_GT(net.certified_epoch_count(), 0u) << "f " << f;
    EXPECT_DOUBLE_EQ(net.flow_rate(1, 5), 100e6);

    net.scale_node_capacity(0, f, 1.0);
    net.scale_node_capacity(4, 1.0, f);
    s.run_until(2.0);
    EXPECT_GT(net.validation_walk_count(), 0u) << "f " << f;
    EXPECT_GT(net.escalation_count(), 0u) << "f " << f;
    EXPECT_NEAR(net.flow_rate(0, 4), 120e6, 1.0) << "f " << f;  // 420 - 3 x 100
    EXPECT_NEAR(net.flow_rate(1, 5), 100e6, 1.0) << "f " << f;

    const std::uint64_t walks = net.validation_walk_count();
    const std::uint64_t certified = net.certified_epoch_count();
    net.scale_node_capacity(0, 1 / f, 1.0);
    net.scale_node_capacity(4, 1.0, 1 / f);
    s.run();
    EXPECT_EQ(net.validation_walk_count(), walks) << "f " << f;
    EXPECT_GT(net.certified_epoch_count(), certified) << "f " << f;
  }
}

/// NIC degrade/restore windows (0.4 and its reciprocal, as the fault
/// injector applies them) and a raise above 1 with its restore.
std::vector<NetEvent> degrade_restore_events() {
  std::vector<NetEvent> ev;
  ev.push_back({1.0, NetEvent::kScale, 3, 0.4});
  ev.push_back({1.5, NetEvent::kScale, 5, 2.0});
  ev.push_back({2.25, NetEvent::kScale, 3, 1 / 0.4});
  ev.push_back({2.5, NetEvent::kScale, 9, 0.4, 1});  // behind same-instant arrivals
  ev.push_back({3.0, NetEvent::kScale, 5, 0.5});
  ev.push_back({4.0, NetEvent::kScale, 9, 1 / 0.4});
  return ev;
}

TEST(IncrementalSolver, EquivalentOnFiniteFabricUnderDegradeRestore) {
  // A fabric that binds only while enough flows run at once: epochs move
  // between certified, walked and escalated as the load and the NICs change.
  const Topology topo = flat_topology(16, /*fabric=*/900e6);
  const auto events = degrade_restore_events();
  for (std::uint64_t seed = 101; seed <= 103; ++seed) {
    const auto flows = random_flows(150, topo.nic.size(), true, seed);
    const RunLog inc = run_scenario(topo, flows, true, events);
    expect_identical(inc, run_scenario(topo, flows, false, events));
    EXPECT_GT(inc.walks, 0u) << "seed " << seed;
    EXPECT_GT(inc.certified, 0u) << "seed " << seed;
  }
}

TEST(IncrementalSolver, EquivalentOnUplinksUnderDegradeRestore) {
  Topology topo;
  topo.fabric = 2e9;
  topo.uplinks = {250e6, 250e6, 250e6, 250e6};
  topo.nic.assign(16, 100e6);
  topo.node_group.resize(16);
  for (std::size_t i = 0; i < 16; ++i) topo.node_group[i] = i / 4;
  const auto events = degrade_restore_events();
  for (std::uint64_t seed = 111; seed <= 113; ++seed) {
    const auto flows = random_flows(150, topo.nic.size(), true, seed);
    const RunLog inc = run_scenario(topo, flows, true, events);
    expect_identical(inc, run_scenario(topo, flows, false, events));
    EXPECT_GT(inc.walks, 0u) << "seed " << seed;
    EXPECT_GT(inc.certified, 0u) << "seed " << seed;
  }
}

// --- fabric violation certificate -------------------------------------------

/// One flow per disjoint (2i -> 2i+1) pair of 100 MB/s nodes, all at t = 0.
std::vector<FlowSpec> lockstep_pairs(std::size_t n, double bytes) {
  return staggered_pairs(std::vector<double>(n, 0.0), bytes);
}

sim::Task chain(FlowNetwork* net, NodeId a, NodeId b, double bytes, int links) {
  for (int i = 0; i < links; ++i) co_await net->transfer(a, b, bytes, TrafficClass::kMemory);
}

TEST(ViolationCertificate, ProvesLockstepFabricSaturation) {
  // Eight NIC-disjoint pairs run identical back-to-back chains under a
  // 400 MB/s fabric, half their 800 MB/s of NIC shares: every chain link
  // arrives in one epoch with the whole fleet dirty, so the bottleneck
  // bounds (100 MB/s each) prove the overrun and every escalation skips
  // the walk. The global fill gives each flow exactly fabric / N.
  constexpr int kPairs = 8;
  constexpr double kFabric = 400e6;
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{kFabric, 0.0});
  for (int i = 0; i < 2 * kPairs; ++i) net.add_node(100e6);
  for (NodeId p = 0; p < kPairs; ++p) s.spawn(chain(&net, 2 * p, 2 * p + 1, 20e6, 5));
  for (const double t : {0.2, 0.6, 1.0, 1.4, 1.8}) {
    s.run_until(t);  // mid-link: 20 MB at 50 MB/s takes 0.4 s
    for (NodeId p = 0; p < kPairs; ++p)
      EXPECT_EQ(net.flow_rate(2 * p, 2 * p + 1), kFabric / kPairs) << "t " << t;
  }
  s.run();
  EXPECT_EQ(net.escalation_count(), 5u);
  EXPECT_EQ(net.proven_escalation_count(), net.escalation_count());
  EXPECT_EQ(net.validation_walk_count(), 0u);
}

TEST(ViolationCertificate, ProvesEscalationsOnceTheWholeFleetIsDirty) {
  // Eight long flows on disjoint pairs arrive 10 ms apart under a 400 MB/s
  // fabric. Each arrival's epoch solves only its own flow while the merged
  // rest stays clean, so the walk decides: the fifth to eighth arrivals
  // escalate by walk. The flows then leave one at a time (sizes differ),
  // each departure dirties the whole merged fleet, and the bounds prove
  // the overrun while five or more remain: 7 -> 6 -> 5 survivors.
  const Topology topo = flat_topology(16, /*fabric=*/400e6);
  std::vector<FlowSpec> flows;
  for (NodeId p = 0; p < 8; ++p)
    flows.push_back(FlowSpec{0.01 * p, 2 * p, 2 * p + 1, 100e6 + 20e6 * p, kUnlimitedRate});
  const RunLog inc = run_scenario(topo, flows, true);
  expect_identical(inc, run_scenario(topo, flows, false));
  EXPECT_EQ(inc.escalations, 7u);
  EXPECT_EQ(inc.proven, 3u);
}

TEST(ViolationCertificate, UnboundedFlowVoidsTheProof) {
  // A pair with unlimited NICs and no cap has no bottleneck bound its
  // water-fill honours. It outlives the rest, so every escalation goes
  // through the walk.
  Topology topo = flat_topology(18, /*fabric=*/400e6);
  topo.nic[16] = topo.nic[17] = kUnlimitedRate;
  auto flows = lockstep_pairs(9, 200e6);
  flows.back().bytes = 2e9;
  const RunLog inc = run_scenario(topo, flows, true);
  expect_identical(inc, run_scenario(topo, flows, false));
  EXPECT_GT(inc.escalations, 0u);
  EXPECT_EQ(inc.proven, 0u);
  EXPECT_GE(inc.walks, inc.escalations);
}

TEST(ViolationCertificate, CleanComponentLeftOutOfTheDirtyRegionGoesToTheWalk) {
  // Long flows arrive one per instant on disjoint pairs: each arrival's
  // epoch solves only its own flow while the merged rest stays clean, so
  // the certificate does not apply. The fifth flow over-demands the
  // 400 MB/s fabric and every arrival from then on escalates by walk.
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{400e6, 0.0});
  for (int i = 0; i < 16; ++i) net.add_node(100e6);
  struct Arrival {
    sim::Simulator& s;
    FlowNetwork& net;
    void go(NodeId p) { s.spawn(xfer(&net, 2 * p, 2 * p + 1, 1e9)); }
  } arrival{s, net};
  for (NodeId p = 0; p < 8; ++p) s.schedule(0.1 * p, [a = &arrival, p] { a->go(p); });
  s.run_until(0.75);
  EXPECT_EQ(net.escalation_count(), 4u);
  EXPECT_EQ(net.proven_escalation_count(), 0u);
  EXPECT_EQ(net.validation_walk_count(), 5u);  // four flows walk and fit
  s.run();
}

TEST(ViolationCertificate, SingleGroupKeepsItsFabricAndCertifiesNothing) {
  // One 1 GB/s sender to eight 100 MB/s receivers: the bounds (100 MB/s
  // each) sum past the 400 MB/s fabric, but one group contains the fabric
  // and its own water-fill honours it, so nothing escalates.
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{400e6, 0.0});
  const NodeId src = net.add_node(1e9);
  for (int i = 0; i < 8; ++i) net.add_node(100e6);
  for (NodeId d = 1; d <= 8; ++d) s.spawn(xfer(&net, src, d, 200e6));
  s.run_until(1.0);
  for (NodeId d = 1; d <= 8; ++d) EXPECT_EQ(net.flow_rate(src, d), 50e6);
  s.run();
  EXPECT_EQ(net.escalation_count(), 0u);
  EXPECT_EQ(net.proven_escalation_count(), 0u);
  EXPECT_GT(net.validation_walk_count(), 0u);
}

TEST(ViolationCertificate, BoundsWithinTheMarginGoToTheWalk) {
  // Eight 100 MB/s flows on a fabric 20 B/s short of their 800 MB/s: the
  // walk escalates (usage is more than kEpsRate over), but the bounds do
  // not clear the certificate's margin (1e-6 of the fabric, 800 B/s).
  const auto flows = lockstep_pairs(8, 100e6);
  const RunLog inc = run_scenario(flat_topology(16, 800e6 - 20), flows, true);
  expect_identical(inc, run_scenario(flat_topology(16, 800e6 - 20), flows, false));
  EXPECT_GT(inc.escalations, 0u);
  EXPECT_EQ(inc.proven, 0u);
  // At exactly 800 MB/s the fabric holds: walked, never escalated.
  const RunLog fits = run_scenario(flat_topology(16, 800e6), flows, true);
  EXPECT_EQ(fits.escalations, 0u);
  EXPECT_EQ(fits.proven, 0u);
  EXPECT_GT(fits.walks, 0u);
}

TEST(ViolationCertificate, PessimisticBoundsGoToTheWalk) {
  // Each sender carries three 1 MB/s-capped flows and one uncapped flow:
  // the uncapped flow's bound is a quarter of its NIC, but max-min gives it
  // 97 MB/s. Eight such senders bound 224 MB/s in total and use 800 MB/s:
  // the 400 MB/s fabric is overrun without the certificate seeing it.
  Topology topo = flat_topology(40, /*fabric=*/400e6);
  std::vector<FlowSpec> flows;
  for (NodeId g = 0; g < 8; ++g) {
    const NodeId src = 5 * g;
    for (NodeId k = 1; k <= 4; ++k)
      flows.push_back(FlowSpec{0.0, src, src + k, 50e6, k < 4 ? 1e6 : kUnlimitedRate});
  }
  const RunLog inc = run_scenario(topo, flows, true);
  expect_identical(inc, run_scenario(topo, flows, false));
  EXPECT_GT(inc.escalations, 0u);
  EXPECT_EQ(inc.proven, 0u);
}

// --- bulk completion-heap re-key ---------------------------------------------

TEST(BulkRekey, FlappedFlowLeavesTheHeapAndRejoins) {
  // Four 300 MB flows on disjoint pairs share a 200 MB/s fabric (50 MB/s
  // each). Node 0's link flaps from t = 1 to t = 2: its flow stalls and
  // drops out of the completion heap while the other three take 200/3
  // MB/s, then rejoins at 50 MB/s. The others finish at 2 + (250 - 200/3)
  // / 50 s; the flapped flow then runs alone at its 100 MB/s NIC.
  const Topology topo = flat_topology(8, /*fabric=*/200e6);
  const auto flows = lockstep_pairs(4, 300e6);
  const std::vector<NetEvent> events = {{1.0, NetEvent::kFlap, 0},
                                        {2.0, NetEvent::kUnflap, 0}};
  const RunLog inc = run_scenario(topo, flows, true, events);
  expect_identical(inc, run_scenario(topo, flows, false, events));
  const double others = 2.0 + (250e6 - 200e6 / 3) / 50e6;
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NEAR(inc.completions[i], others, 1e-6);
  EXPECT_NEAR(inc.completions[0], others + (200e6 / 3) / 100e6, 1e-6);
  EXPECT_GE(inc.proven, 2u);  // the flap and the restore re-key in bulk

  // Flapped past its old projection (6 s): the stalled flow left the heap,
  // so nothing wakes then. Epochs: the arrivals, the flap, the three
  // completions at 4.75 s, the restore at 7 s and the last completion.
  const std::vector<NetEvent> long_flap = {{1.0, NetEvent::kFlap, 0},
                                           {7.0, NetEvent::kUnflap, 0}};
  const RunLog stalled = run_scenario(topo, flows, true, long_flap);
  expect_identical(stalled, run_scenario(topo, flows, false, long_flap));
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NEAR(stalled.completions[i], 4.75, 1e-6);
  EXPECT_NEAR(stalled.completions[0], 9.5, 1e-6);
  EXPECT_EQ(stalled.recomputes, 5u);
}

TEST(BulkRekey, EquivalentUnderSaturatedFabricWithFlaps) {
  // The saturated-fabric suite with links flapping mid-burst: escalated
  // epochs stall flows, drop them from the heap and re-add them.
  const Topology topo = flat_topology(16, /*fabric=*/250e6);
  const std::vector<NetEvent> events = {
      {1.0, NetEvent::kFlap, 2},   {1.5, NetEvent::kFlap, 5, 0.0, 1},
      {2.0, NetEvent::kUnflap, 2}, {2.5, NetEvent::kFlap, 2},
      {3.25, NetEvent::kUnflap, 5}, {4.0, NetEvent::kUnflap, 2},
  };
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto flows = random_flows(120, topo.nic.size(), false, seed);
    const RunLog inc = run_scenario(topo, flows, true, events);
    expect_identical(inc, run_scenario(topo, flows, false, events));
    EXPECT_GT(inc.escalations, 0u) << "seed " << seed;
    EXPECT_GT(inc.proven, 0u) << "seed " << seed;
  }
}

// --- introspection hooks ----------------------------------------------------

sim::Task xfer(FlowNetwork* net, NodeId a, NodeId b, double bytes) {
  co_await net->transfer(a, b, bytes, TrafficClass::kMemory);
}

TEST(IncrementalSolver, DisjointArrivalTouchesOnlyItsComponent) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{1e12, 0.0});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6), d = net.add_node(100e6);
  s.spawn(xfer(&net, a, b, 500e6));
  s.run_until(1.0);
  EXPECT_EQ(net.component_count(), 1u);
  const std::uint64_t touched_before = net.touched_flow_count();
  struct Joiner {
    sim::Simulator& s;
    FlowNetwork& net;
    NodeId x, y;
    void go() { s.spawn(xfer(&net, x, y, 500e6)); }
  } join{s, net, c, d};
  s.schedule(0.5, [&join] { join.go(); });  // at t=1.5
  s.run_until(2.0);
  // The newcomer shares no constraint with the a->b component: exactly one
  // flow re-solved, the cached component untouched.
  EXPECT_EQ(net.touched_flow_count() - touched_before, 1u);
  EXPECT_EQ(net.component_count(), 2u);
  s.run();
}

TEST(IncrementalSolver, SharedEndpointMergesComponents) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{1e12, 0.0});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6);
  s.spawn(xfer(&net, a, b, 800e6));
  s.run_until(1.0);
  const std::uint64_t touched_before = net.touched_flow_count();
  // Joins through the shared source NIC: the existing flow must be
  // re-solved too (its fair share halves).
  struct Joiner {
    sim::Simulator& s;
    FlowNetwork& net;
    NodeId x, y;
    void go() { s.spawn(xfer(&net, x, y, 800e6)); }
  } join{s, net, a, c};
  s.schedule(0.5, [&join] { join.go(); });  // at t=1.5
  s.run_until(2.0);
  EXPECT_EQ(net.touched_flow_count() - touched_before, 2u);
  EXPECT_EQ(net.component_count(), 1u);
  s.run();
}

TEST(IncrementalSolver, DepartureSplitsComponent) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{1e12, 0.0});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6), d = net.add_node(100e6);
  // a->c and b->c share ingress(c); b->d and b->c share egress(b): one
  // component of three flows chained through b->c.
  s.spawn(xfer(&net, a, c, 1000e6));
  s.spawn(xfer(&net, b, c, 25e6));  // finishes first (50 MB/s share)
  s.spawn(xfer(&net, b, d, 1000e6));
  s.run_until(0.1);
  EXPECT_EQ(net.component_count(), 1u);
  s.run_until(2.0);  // b->c is gone; the chain is broken
  EXPECT_EQ(net.active_flows(), 2u);
  EXPECT_EQ(net.component_count(), 2u);
  s.run();
}

TEST(IncrementalSolver, SaturatedFabricEscalatesAndMerges) {
  sim::Simulator s;
  FlowNetwork net(s, FlowNetworkConfig{/*fabric=*/120e6, 0.0});
  const NodeId a = net.add_node(100e6), b = net.add_node(100e6);
  const NodeId c = net.add_node(100e6), d = net.add_node(100e6);
  double done1 = -1, done2 = -1;
  s.spawn([](FlowNetwork* n, NodeId x, NodeId y, double* t,
             sim::Simulator* sm) -> sim::Task {
    co_await n->transfer(x, y, 60e6, TrafficClass::kMemory);
    *t = sm->now();
  }(&net, a, b, &done1, &s));
  s.spawn([](FlowNetwork* n, NodeId x, NodeId y, double* t,
             sim::Simulator* sm) -> sim::Task {
    co_await n->transfer(x, y, 60e6, TrafficClass::kMemory);
    *t = sm->now();
  }(&net, c, d, &done2, &s));
  s.run_until(0.1);
  // Disjoint NIC pairs, but the 120 MB/s fabric binds: the decomposition is
  // rejected and both flows merge into one globally-solved component.
  EXPECT_GE(net.escalation_count(), 1u);
  EXPECT_EQ(net.component_count(), 1u);
  s.run();
  EXPECT_NEAR(done1, 1.0, 1e-6);  // 60 MB/s each under the fabric cap
  EXPECT_NEAR(done2, 1.0, 1e-6);
}

}  // namespace
}  // namespace hm::net
