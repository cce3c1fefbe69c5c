// Destination placement for the continuous scheduler: choose, per request,
// a destination node from the experiment's destination pool under per-node
// capacity and anti-affinity constraints. Purely deterministic bookkeeping —
// no simulator events, no RNG — so a placement decision is a function of
// the decision history alone and the scheduler's timeline stays a pure
// function of (config, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/flow_network.h"

namespace hm::cloud {

enum class PlacementPolicy : std::uint8_t {
  kRoundRobin,   // rotate through feasible nodes in pool order
  kLeastLoaded,  // fewest residents + in-flight reservations, lowest id ties
};
const char* placement_policy_name(PlacementPolicy p) noexcept;
bool parse_placement_policy(std::string_view name, PlacementPolicy* out);

struct PlacementConfig {
  PlacementPolicy policy = PlacementPolicy::kLeastLoaded;
  /// Max VMs per destination node, counting residents AND in-flight
  /// reservations (0 = unlimited).
  std::uint32_t capacity = 0;
  /// Anti-affinity: VMs with equal (vm_id % affinity_groups) must never
  /// co-reside on (or be simultaneously in flight toward) one destination
  /// node. 0 disables the constraint.
  std::uint32_t affinity_groups = 0;
};

/// Occupancy tracker over the destination pool [first_dst, first_dst + n).
/// The scheduler reserves a node at dispatch, releases it when a request is
/// abandoned, and commits it when a migration completes (which also vacates
/// the VM's previous pool node, if any). A preempted request keeps its
/// reservation: the salvaged partial replica physically occupies the
/// destination, and re-dispatch must reuse the same node for the resume
/// state to be adoptable.
class PlacementMap {
 public:
  PlacementMap(PlacementConfig cfg, net::NodeId first_dst, std::uint32_t num_dsts);

  /// True when at least one pool node can accept `vm_id` right now.
  bool feasible(int vm_id) const noexcept;
  /// Pick a destination for `vm_id` per the policy (precondition:
  /// feasible(vm_id)). Round-robin advances its rotation cursor.
  net::NodeId choose(int vm_id);

  void reserve(net::NodeId n, int vm_id);
  void release(net::NodeId n, int vm_id);
  /// Migration done: the reservation on `n` becomes residency, and the VM's
  /// previous pool residency (if any) is vacated.
  void commit(net::NodeId n, int vm_id);

  std::uint32_t residents(net::NodeId n) const noexcept;
  std::uint32_t reserved(net::NodeId n) const noexcept;
  const PlacementConfig& config() const noexcept { return cfg_; }

 private:
  struct Node {
    std::uint32_t residents = 0;
    std::uint32_t reserved = 0;
    /// Occupants per affinity group (residents + reservations).
    std::vector<std::uint32_t> group_count;
  };

  std::uint32_t group_of(int vm_id) const noexcept {
    return cfg_.affinity_groups == 0
               ? 0
               : static_cast<std::uint32_t>(vm_id) % cfg_.affinity_groups;
  }
  /// Pool index of the node `vm_id` resides on, or nodes_.size() when it
  /// has never completed a migration into the pool.
  std::size_t own_index(int vm_id) const noexcept;
  /// Whether pool node `i` accepts a VM of affinity `group` residing at pool
  /// index `own` (own_index).
  bool admits(std::size_t i, std::size_t own, std::uint32_t group) const noexcept;
  std::size_t index_of(net::NodeId n) const noexcept {
    return static_cast<std::size_t>(n - first_dst_);
  }

  PlacementConfig cfg_;
  net::NodeId first_dst_;
  std::vector<Node> nodes_;
  /// Current pool node of each VM that completed a migration (home nodes
  /// live outside the pool and are never tracked).
  std::unordered_map<int, net::NodeId> resident_of_;
  std::size_t rr_cursor_ = 0;
};

}  // namespace hm::cloud
