// Deterministic component decomposition of the FlowNetwork constraint
// graph.
//
// Two simulation items (VMs, with their migrations) can only influence each
// other through a shared network constraint: a NIC they both use (same
// source node, same destination node) or a finite shared constraint (fabric
// aggregate, switch uplink). When every shared constraint is infinite — the
// non-blocking Clos core — the constraint graph decomposes into connected
// components over NIC endpoints alone, exactly the component structure the
// incremental solver exploits per settle epoch. This header computes that
// decomposition statically, from the planned endpoint sets.
//
// Everything is deterministic: each component lists its items ascending,
// and components are ordered by their minimal item. The same input always
// yields the same components — a prerequisite for the sharded timeline
// being byte-identical run to run.
#pragma once

#include <cstdint>
#include <vector>

namespace hm::net {

/// The connected components of `n_items` items. `edges` lists every
/// (item, node) incidence: an item touches a node's NIC constraints.
/// Items connected through any chain of shared nodes land in one
/// component; out-of-range incidences link nothing.
std::vector<std::vector<std::uint32_t>> partition_items(
    std::size_t n_items, std::size_t n_nodes,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& edges);

}  // namespace hm::net
