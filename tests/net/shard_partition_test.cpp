// Deterministic component partitioner (net/shard_partition.h): component
// discovery over (item, node) incidences, canonical ordering, and input
// edge cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/shard_partition.h"

namespace hm::net {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
using Components = std::vector<std::vector<std::uint32_t>>;

TEST(ShardPartition, ItemsSharingANodeFormOneComponent) {
  // Items 0,1 share node 0; items 2,3 share node 3; item 4 is alone.
  const Edges edges = {{0, 0}, {1, 0}, {2, 3}, {3, 3}, {4, 5}};
  EXPECT_EQ(partition_items(5, 6, edges), (Components{{0, 1}, {2, 3}, {4}}));
}

TEST(ShardPartition, TransitiveChainsMerge) {
  // 0-1 via node 0, 1-2 via node 1, 2-3 via node 2: one component of 4.
  const Edges edges = {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2}};
  EXPECT_EQ(partition_items(4, 3, edges), (Components{{0, 1, 2, 3}}));
}

TEST(ShardPartition, ComponentsOrderByMinimalItem) {
  // Item 4 links to item 0 through node 2 and item 1 to item 3 through
  // node 1: components list ascending items, ordered by their first.
  const Edges edges = {{4, 2}, {3, 1}, {1, 1}, {0, 2}, {2, 0}};
  EXPECT_EQ(partition_items(5, 3, edges), (Components{{0, 4}, {1, 3}, {2}}));
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  Edges edges;
  for (std::uint32_t i = 0; i < 64; ++i) edges.emplace_back(i, i % 16);
  const Components a = partition_items(64, 16, edges);
  EXPECT_EQ(a, partition_items(64, 16, edges));
  ASSERT_EQ(a.size(), 16u);
  for (std::uint32_t c = 0; c < 16; ++c)
    EXPECT_EQ(a[c], (std::vector<std::uint32_t>{c, c + 16, c + 32, c + 48}));
}

TEST(ShardPartition, EdgeCases) {
  EXPECT_TRUE(partition_items(0, 4, {}).empty());

  // Out-of-range incidences are ignored.
  const Edges bogus = {{0, 99}, {99, 0}, {1, 0}};
  EXPECT_EQ(partition_items(2, 1, bogus), (Components{{0}, {1}}));  // linked nothing
}

TEST(ShardPartition, ItemsWithoutEdgesAreSingletons) {
  EXPECT_EQ(partition_items(3, 2, {}), (Components{{0}, {1}, {2}}));
}

}  // namespace
}  // namespace hm::net
