#include "net/shard_partition.h"

#include <algorithm>
#include <numeric>

namespace hm::net {

namespace {

constexpr std::uint32_t kNil = 0xffffffffu;

std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> partition_items(
    std::size_t n_items, std::size_t n_nodes,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges) {
  // Union-find over items, linked through their nodes. Roots are driven to
  // minimal item indices so component identity is canonical.
  std::vector<std::uint32_t> parent(n_items);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<std::uint32_t> node_item(n_nodes, kNil);
  for (const auto& [item, node] : edges) {
    if (item >= n_items || node >= n_nodes) continue;
    if (node_item[node] == kNil) {
      node_item[node] = item;
      continue;
    }
    std::uint32_t ra = find_root(parent, item);
    std::uint32_t rb = find_root(parent, node_item[node]);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }

  // Roots are minimal and items are scanned ascending, so first-seen order
  // is ascending-minimal-item order and each component fills ascending.
  std::vector<std::vector<std::uint32_t>> components;
  std::vector<std::uint32_t> comp_of_root(n_items, kNil);
  for (std::uint32_t i = 0; i < n_items; ++i) {
    const std::uint32_t r = find_root(parent, i);
    if (comp_of_root[r] == kNil) {
      comp_of_root[r] = static_cast<std::uint32_t>(components.size());
      components.emplace_back();
    }
    components[comp_of_root[r]].push_back(i);
  }
  return components;
}

}  // namespace hm::net
