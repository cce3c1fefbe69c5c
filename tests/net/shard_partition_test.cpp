// Deterministic component partitioner (net/shard_partition.h): component
// discovery over (item, node) incidences, canonical ordering, balanced
// greedy packing, the torn-partition case (fewer components than bins),
// and input edge cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "net/shard_partition.h"

namespace hm::net {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(ShardPartition, ItemsSharingANodeFormOneComponent) {
  // Items 0,1 share node 0; items 2,3 share node 3; item 4 is alone.
  const Edges edges = {{0, 0}, {1, 0}, {2, 3}, {3, 3}, {4, 5}};
  const ShardAssignment asg = partition_items(5, 6, edges, 3);
  EXPECT_EQ(asg.components, 3u);
  EXPECT_EQ(asg.bins_used, 3u);
  EXPECT_EQ(asg.shard_of_item[0], asg.shard_of_item[1]);
  EXPECT_EQ(asg.shard_of_item[2], asg.shard_of_item[3]);
  EXPECT_NE(asg.shard_of_item[0], asg.shard_of_item[2]);
  EXPECT_NE(asg.shard_of_item[0], asg.shard_of_item[4]);
  EXPECT_NE(asg.shard_of_item[2], asg.shard_of_item[4]);
}

TEST(ShardPartition, TransitiveChainsMerge) {
  // 0-1 via node 0, 1-2 via node 1, 2-3 via node 2: one component of 4.
  const Edges edges = {{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2}};
  const ShardAssignment asg = partition_items(4, 3, edges, 4);
  EXPECT_EQ(asg.components, 1u);
  EXPECT_EQ(asg.bins_used, 1u);
  for (std::uint32_t i = 1; i < 4; ++i)
    EXPECT_EQ(asg.shard_of_item[i], asg.shard_of_item[0]);
}

TEST(ShardPartition, DeterministicAcrossCalls) {
  Edges edges;
  for (std::uint32_t i = 0; i < 64; ++i) edges.emplace_back(i, i % 16);
  const ShardAssignment a = partition_items(64, 16, edges, 4);
  const ShardAssignment b = partition_items(64, 16, edges, 4);
  EXPECT_EQ(a.shard_of_item, b.shard_of_item);
  EXPECT_EQ(a.components, b.components);
  EXPECT_EQ(a.bins_used, b.bins_used);
}

TEST(ShardPartition, GreedyPackingBalancesLoad) {
  // Component weights 3 (items 0-2 via node 0), 1, 1, 1: heaviest-first
  // least-loaded packing must land 3|3, not 4|2.
  const Edges edges = {{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 2}, {5, 3}};
  const ShardAssignment asg = partition_items(6, 4, edges, 2);
  EXPECT_EQ(asg.components, 4u);
  EXPECT_EQ(asg.bins_used, 2u);
  std::vector<int> load(2, 0);
  for (std::uint32_t i = 0; i < 6; ++i) ++load[asg.shard_of_item[i]];
  EXPECT_EQ(load[0], 3);
  EXPECT_EQ(load[1], 3);
}

TEST(ShardPartition, TornPartitionLeavesBinsEmpty) {
  // Two components, eight requested bins: only two bins receive items.
  const Edges edges = {{0, 0}, {1, 0}, {2, 1}, {3, 1}};
  const ShardAssignment asg = partition_items(4, 2, edges, 8);
  EXPECT_EQ(asg.components, 2u);
  EXPECT_EQ(asg.bins_used, 2u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_LT(asg.shard_of_item[i], 8u);
}

TEST(ShardPartition, EdgeCases) {
  const ShardAssignment empty = partition_items(0, 4, {}, 4);
  EXPECT_EQ(empty.components, 0u);
  EXPECT_EQ(empty.bins_used, 0u);
  EXPECT_TRUE(empty.shard_of_item.empty());

  // bins = 0 is clamped to 1; out-of-range incidences are ignored.
  const Edges bogus = {{0, 99}, {99, 0}, {1, 0}};
  const ShardAssignment asg = partition_items(2, 1, bogus, 0);
  EXPECT_EQ(asg.components, 2u);  // the bogus edges linked nothing
  EXPECT_EQ(asg.bins_used, 1u);
  EXPECT_EQ(asg.shard_of_item[0], 0u);
  EXPECT_EQ(asg.shard_of_item[1], 0u);
}

TEST(ShardPartition, ItemsWithoutEdgesAreSingletons) {
  const ShardAssignment asg = partition_items(3, 2, {}, 2);
  EXPECT_EQ(asg.components, 3u);
  EXPECT_EQ(asg.bins_used, 2u);
}

}  // namespace
}  // namespace hm::net
