#include "cloud/placement.h"

#include <cassert>

namespace hm::cloud {

const char* placement_policy_name(PlacementPolicy p) noexcept {
  switch (p) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
  }
  return "?";
}

bool parse_placement_policy(std::string_view name, PlacementPolicy* out) {
  if (name == "round-robin" || name == "rr") {
    *out = PlacementPolicy::kRoundRobin;
    return true;
  }
  if (name == "least-loaded" || name == "ll") {
    *out = PlacementPolicy::kLeastLoaded;
    return true;
  }
  return false;
}

PlacementMap::PlacementMap(PlacementConfig cfg, net::NodeId first_dst,
                           std::uint32_t num_dsts)
    : cfg_(cfg), first_dst_(first_dst), nodes_(num_dsts) {
  if (cfg_.affinity_groups > 0)
    for (Node& nd : nodes_) nd.group_count.assign(cfg_.affinity_groups, 0);
}

std::size_t PlacementMap::own_index(int vm_id) const noexcept {
  const auto it = resident_of_.find(vm_id);
  return it == resident_of_.end() ? nodes_.size() : index_of(it->second);
}

bool PlacementMap::admits(std::size_t i, std::size_t own,
                          std::uint32_t group) const noexcept {
  // A VM never migrates onto the pool node it already occupies (its own
  // residency would also trip the anti-affinity count below).
  if (i == own) return false;
  const Node& nd = nodes_[i];
  if (cfg_.capacity > 0 && nd.residents + nd.reserved >= cfg_.capacity) return false;
  if (cfg_.affinity_groups > 0 && nd.group_count[group] > 0) return false;
  return true;
}

bool PlacementMap::feasible(int vm_id) const noexcept {
  const std::size_t own = own_index(vm_id);
  const std::uint32_t group = group_of(vm_id);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (admits(i, own, group)) return true;
  return false;
}

net::NodeId PlacementMap::choose(int vm_id) {
  const std::size_t n = nodes_.size();
  const std::size_t own = own_index(vm_id);
  const std::uint32_t group = group_of(vm_id);
  if (cfg_.policy == PlacementPolicy::kRoundRobin) {
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = (rr_cursor_ + step) % n;
      if (admits(i, own, group)) {
        rr_cursor_ = (i + 1) % n;
        return first_dst_ + static_cast<net::NodeId>(i);
      }
    }
  } else {
    std::size_t best = n;
    std::uint32_t best_load = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!admits(i, own, group)) continue;
      const std::uint32_t load = nodes_[i].residents + nodes_[i].reserved;
      if (best == n || load < best_load) {
        best = i;
        best_load = load;
      }
    }
    if (best < n) return first_dst_ + static_cast<net::NodeId>(best);
  }
  assert(false && "choose() requires feasible(vm_id)");
  return first_dst_;
}

void PlacementMap::reserve(net::NodeId n, int vm_id) {
  Node& nd = nodes_[index_of(n)];
  ++nd.reserved;
  if (cfg_.affinity_groups > 0) ++nd.group_count[group_of(vm_id)];
}

void PlacementMap::release(net::NodeId n, int vm_id) {
  Node& nd = nodes_[index_of(n)];
  assert(nd.reserved > 0);
  --nd.reserved;
  if (cfg_.affinity_groups > 0) --nd.group_count[group_of(vm_id)];
}

void PlacementMap::commit(net::NodeId n, int vm_id) {
  Node& nd = nodes_[index_of(n)];
  assert(nd.reserved > 0);
  --nd.reserved;
  ++nd.residents;  // the group count carries over: the occupant stays
  if (auto it = resident_of_.find(vm_id); it != resident_of_.end()) {
    Node& old = nodes_[index_of(it->second)];
    assert(old.residents > 0);
    --old.residents;
    if (cfg_.affinity_groups > 0) --old.group_count[group_of(vm_id)];
    it->second = n;
  } else {
    resident_of_.emplace(vm_id, n);
  }
}

std::uint32_t PlacementMap::residents(net::NodeId n) const noexcept {
  return nodes_[index_of(n)].residents;
}

std::uint32_t PlacementMap::reserved(net::NodeId n) const noexcept {
  return nodes_[index_of(n)].reserved;
}

}  // namespace hm::cloud
