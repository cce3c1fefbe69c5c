#include "vm/compute_node.h"

namespace hm::vm {

sim::Task ComputeNode::consume_cpu(double dt) {
  refresh_integral();
  const double target = avail_integral_ + dt;
  for (;;) {
    refresh_integral();
    const double remaining = target - avail_integral_;
    if (remaining <= 1e-12) break;
    // Sleep the exact time needed at the current share. If the load rises
    // meanwhile the integral advances slower and the loop waits again; a
    // falling load only makes us finish marginally pessimistically.
    co_await sim_.delay(remaining / guest_share());
  }
}

Cluster::Cluster(sim::Simulator& sim, ClusterConfig cfg, std::span<const net::NodeId> subset)
    : sim_(sim), cfg_(cfg), net_(sim, cfg.network), repo_(sim, net_, cfg.image),
      rng_(cfg.seed) {
  if (!subset.empty()) cfg_.num_nodes = subset.size();
  nodes_.reserve(cfg_.num_nodes);
  std::size_t last_switch = 0;
  for (std::size_t i = 0; i < cfg_.num_nodes; ++i) {
    const std::size_t global = subset.empty() ? i : subset[i];
    net::SwitchGroupId group = 0;  // group 0 stays flat
    if (cfg_.nodes_per_switch > 0) {
      // Ascending ids: a new switch opens the next dense group.
      const std::size_t sw = global / cfg_.nodes_per_switch;
      if (i == 0 || sw != last_switch) net_.add_switch_group(cfg_.switch_uplink_Bps);
      last_switch = sw;
      group = static_cast<net::SwitchGroupId>(net_.switch_group_count() - 1);
    }
    const net::NodeId id = net_.add_node(cfg_.nic_Bps, group);
    nodes_.push_back(std::make_unique<ComputeNode>(sim_, id, cfg_.disk));
    // The repository aggregates part of every compute node's local disk
    // into a common striped pool (Section 4.2 of the paper).
    repo_.add_storage_node(id, &nodes_.back()->disk());
  }
  if (cfg_.enable_pvfs) {
    pvfs_ = std::make_unique<storage::Pvfs>(sim_, net_);
    for (auto& n : nodes_) pvfs_->add_server(n->id(), &n->disk());
  }
}

}  // namespace hm::vm
