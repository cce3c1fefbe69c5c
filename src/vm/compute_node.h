// Cluster of compute nodes: each node has a NIC on the shared fabric and a
// local disk. The striped repository (and optionally PVFS) aggregate the
// local disks of all compute nodes, exactly like the paper's deployment on
// the Grid'5000 graphene cluster.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/flow_network.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "storage/chunk_store.h"
#include "storage/disk.h"
#include "storage/pvfs.h"
#include "storage/repository.h"

namespace hm::vm {

struct ClusterConfig {
  std::size_t num_nodes = 8;
  double nic_Bps = 117.5e6;  // measured GbE throughput in the paper
  net::FlowNetworkConfig network{};
  /// Edge-switch oversubscription: nodes are assigned block-wise to
  /// switches of this size, each with `switch_uplink_Bps` to the core.
  /// 0 = flat network (single unlimited switch).
  std::size_t nodes_per_switch = 0;
  double switch_uplink_Bps = 1.25e9;  // 10 GbE uplink
  storage::DiskConfig disk{};
  storage::ImageConfig image{};
  storage::ChunkStoreConfig chunk_store{};
  bool enable_pvfs = false;
  std::uint64_t seed = 42;
};

class ComputeNode {
 public:
  ComputeNode(sim::Simulator& sim, net::NodeId id, storage::DiskConfig disk_cfg)
      : sim_(sim), id_(id), disk_(sim, disk_cfg) {}
  net::NodeId id() const noexcept { return id_; }
  storage::Disk& disk() noexcept { return disk_; }

  /// Host CPU consumed by background activity (hypervisor migration thread,
  /// FUSE transfer manager, PVFS client). Guest vCPUs on this node run at
  /// (1 - load), floored at 20% so the guest never fully starves.
  double background_cpu_load() const noexcept { return cpu_load_; }
  void add_cpu_load(double l) {
    refresh_integral();
    cpu_load_ = std::max(0.0, cpu_load_ + l);
  }
  void remove_cpu_load(double l) { add_cpu_load(-l); }

  /// Burn `dt` seconds of *guest* CPU time; wall time stretches while
  /// background load is present. Integral accounting: bursts of load
  /// shorter than the wait are accounted exactly, not sampled.
  sim::Task consume_cpu(double dt);

 private:
  double guest_share() const noexcept { return std::max(0.2, 1.0 - cpu_load_); }
  void refresh_integral() noexcept {
    avail_integral_ += (sim_.now() - last_refresh_) * guest_share();
    last_refresh_ = sim_.now();
  }

  sim::Simulator& sim_;
  net::NodeId id_;
  storage::Disk disk_;
  double cpu_load_ = 0;
  double avail_integral_ = 0;
  double last_refresh_ = 0;
};

/// RAII registration of background host CPU load on a node.
class CpuLoadGuard {
 public:
  CpuLoadGuard(ComputeNode& node, double load) : node_(&node), load_(load) {
    node_->add_cpu_load(load_);
  }
  CpuLoadGuard(const CpuLoadGuard&) = delete;
  CpuLoadGuard& operator=(const CpuLoadGuard&) = delete;
  ~CpuLoadGuard() {
    if (node_ != nullptr) node_->remove_cpu_load(load_);
  }
  void release() {
    if (node_ != nullptr) node_->remove_cpu_load(load_);
    node_ = nullptr;
  }

 private:
  ComputeNode* node_;
  double load_;
};

class Cluster {
 public:
  /// Every node of `cfg`, or, when `subset` lists ascending global node
  /// ids, only those: local node i stands for global node subset[i], in the
  /// switch its global id sits behind (switches renumbered densely, order
  /// kept). The repository and PVFS stripe over the nodes built.
  Cluster(sim::Simulator& sim, ClusterConfig cfg, std::span<const net::NodeId> subset = {});
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  sim::Simulator& sim() noexcept { return sim_; }
  net::FlowNetwork& network() noexcept { return net_; }
  storage::Repository& repository() noexcept { return repo_; }
  storage::Pvfs* pvfs() noexcept { return pvfs_ ? pvfs_.get() : nullptr; }
  const ClusterConfig& config() const noexcept { return cfg_; }
  sim::Rng& rng() noexcept { return rng_; }

  std::size_t size() const noexcept { return nodes_.size(); }
  ComputeNode& node(net::NodeId id) noexcept { return *nodes_[id]; }
  storage::Disk& disk(net::NodeId id) noexcept { return nodes_[id]->disk(); }

  /// Create a fresh on-disk image replica on node `id`.
  std::unique_ptr<storage::ChunkStore> make_replica(net::NodeId id) {
    return std::make_unique<storage::ChunkStore>(sim_, disk(id), cfg_.image,
                                                 cfg_.chunk_store);
  }

 private:
  sim::Simulator& sim_;
  ClusterConfig cfg_;
  net::FlowNetwork net_;
  std::vector<std::unique_ptr<ComputeNode>> nodes_;
  storage::Repository repo_;
  std::unique_ptr<storage::Pvfs> pvfs_;
  sim::Rng rng_;
};

}  // namespace hm::vm
