// The fault-kind mapping: every scripted kind strikes exactly the nodes its
// scope resolves to (migration source or destination, raw node id, the
// clipped members of a failure domain, or the repository), with exactly its
// effect, for exactly its window.
#include "cloud/fault_injector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {
namespace {

/// What the injector may change about one node.
struct NodeState {
  bool up = true;
  double egress = 1.0;
  double ingress = 1.0;
  bool flapped = false;
  bool excused = false;
  bool operator==(const NodeState&) const = default;
};

struct Expect {
  const char* kind;
  std::vector<net::NodeId> nodes;  // struck nodes; empty = the repository
  NodeState struck;
};

TEST(FaultInjector, EveryKindStrikesItsResolvedNodes) {
  // 4 VMs on nodes 0-3, 2 destinations (nodes 4-5), 10 nodes in all.
  // Migration k moves node k % 4 to node 4 + (k % 4) % 2. One event every
  // 10 s, each open for 1 s.
  ExperimentConfig cfg;
  cfg.cluster.num_nodes = 10;
  cfg.num_vms = 4;
  cfg.num_migrations = 4;
  cfg.num_destinations = 2;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "src-crash@10+1#1;dst-crash@20+1#3;degrade@30+1*0.5#6;flap@40+1#0;"
      "slow-recv@50+1*0.3#2;repo-outage@60+1;node-crash@70+1#13;"
      "node-degrade@80+1*0.5#7;node-flap@90+1#8;domain-crash@100+1#1;"
      "domain-degrade@110+1*0.5#0;domains:rackA=5-6,rackB=8-12",
      &cfg.faults, &err))
      << err;
  cfg.normalize();
  ASSERT_EQ(cfg.cluster.num_nodes, 10u);

  const NodeState down{.up = false, .excused = true};
  const NodeState half{.egress = 0.5, .ingress = 0.5, .excused = true};
  const NodeState flap{.flapped = true, .excused = true};
  const NodeState slow{.ingress = 0.3, .excused = true};
  const Expect expects[] = {
      {"src-crash", {1}, down},        // migration 1's source
      {"dst-crash", {5}, down},        // migration 3's destination
      {"degrade", {2}, half},          // target 6 wraps to migration 2
      {"flap", {0}, flap},             // migration 0's source
      {"slow-recv", {4}, slow},        // migration 2's destination
      {"repo-outage", {}, {}},         // no node
      {"node-crash", {3}, down},       // node 13 wraps to node 3
      {"node-degrade", {7}, half},     // a node outside every migration
      {"node-flap", {8}, flap},
      {"domain-crash", {8, 9}, down},  // rackB clipped to the cluster
      {"domain-degrade", {5, 6}, half},
  };

  sim::Simulator simulator;
  vm::Cluster cluster(simulator, cfg.cluster);
  Middleware mw(simulator, cluster, cfg.approach, cfg.approach_cfg);
  FaultInjector injector(simulator, cluster, mw, cfg);
  injector.arm();

  auto& net = cluster.network();
  const auto state = [&](net::NodeId n) {
    return NodeState{net.node_up(n), net.egress_scale(n), net.ingress_scale(n),
                     net.link_flapped(n), injector.node_excused(n)};
  };
  const auto check = [&](const Expect& e, bool open) {
    SCOPED_TRACE(std::string(e.kind) + (open ? " open" : " restored"));
    const bool repo_down = open && e.nodes.empty();
    EXPECT_EQ(cluster.repository().available(), !repo_down);
    EXPECT_EQ(injector.repo_disrupted(), repo_down);
    for (net::NodeId n = 0; n < cluster.size(); ++n) {
      bool struck = false;
      for (const net::NodeId s : e.nodes) struck |= (s == n);
      EXPECT_EQ(state(n), open && struck ? e.struck : NodeState{}) << "node " << n;
    }
  };
  for (std::size_t i = 0; i < std::size(expects); ++i) {
    const double at = 10.0 * static_cast<double>(i + 1);
    const Expect* e = &expects[i];
    simulator.schedule_at(at + 0.5, [&check, e] { check(*e, true); });
    simulator.schedule_at(at + 1.5, [&check, e] { check(*e, false); });
  }
  simulator.run();
  EXPECT_EQ(injector.faults_applied(), std::size(expects));
  EXPECT_EQ(injector.correlated_events(), 2u);
  EXPECT_EQ(injector.node_crashes(), 5u);  // 1 + 1 + 1 + the two of rackB
}

TEST(FaultInjector, MigrationTargetsWrapToTheMigrationsThatRun) {
  // 4 VMs on nodes 0-3, 3 migrations onto destinations 4-6: a target names
  // one of the 3 migrations, never VM 3, whose migration does not run.
  ExperimentConfig cfg;
  cfg.num_vms = 4;
  cfg.num_migrations = 3;
  cfg.num_destinations = 3;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("src-crash@5#5;dst-crash@5#7;dst-crash@5#3", &cfg.faults,
                                    &err))
      << err;
  cfg.normalize();
  const std::vector<sim::FaultEvent>& evs = cfg.faults.scripted;
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(fault_migration(cfg, evs[0]), 2u);
  EXPECT_EQ(fault_nodes(cfg, evs[0]), std::vector<net::NodeId>{2});
  EXPECT_EQ(fault_migration(cfg, evs[1]), 1u);
  EXPECT_EQ(fault_nodes(cfg, evs[1]), std::vector<net::NodeId>{5});
  EXPECT_EQ(fault_migration(cfg, evs[2]), 0u);
  EXPECT_EQ(fault_nodes(cfg, evs[2]), std::vector<net::NodeId>{4});

  // With no migration configured, targets wrap to the VM count.
  cfg.num_migrations = 0;
  EXPECT_EQ(fault_migration(cfg, evs[0]), 1u);
  EXPECT_EQ(fault_nodes(cfg, evs[0]), std::vector<net::NodeId>{1});
}

}  // namespace
}  // namespace hm::cloud
