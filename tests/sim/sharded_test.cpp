// Message-passing shard primitives: the EpochBarrier rendezvous (reduce
// runs exactly once per epoch, with every peer parked), the
// (t, shard, seq) total order on ShardMessage, and
// ShardedSimulator::run_epochs(), which must deliver each shard a merged
// inbox whose content and order are independent of thread scheduling. The
// ordering assertions are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "sim/sharded.h"

namespace hm::sim {
namespace {

TEST(EpochBarrier, ReduceRunsOncePerEpochWhilePeersPark) {
  constexpr std::uint32_t kParties = 4;
  constexpr std::uint64_t kEpochs = 50;
  EpochBarrier bar(kParties);
  std::atomic<std::uint32_t> arrived{0};
  std::uint64_t reduces = 0;  // written only inside reduce, under the barrier lock
  std::vector<std::uint64_t> reduce_epochs;
  bar.set_reduce([&](std::uint64_t epoch) {
    // Every party must have arrived (and none released yet) when the
    // reduce runs: the epoch is quiescent.
    EXPECT_EQ(arrived.load(), kParties);
    ++reduces;
    reduce_epochs.push_back(epoch);
  });

  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < kParties; ++p) {
    threads.emplace_back([&] {
      for (std::uint64_t e = 0; e < kEpochs; ++e) {
        arrived.fetch_add(1);
        const std::uint64_t got = bar.arrive_and_wait();
        arrived.fetch_sub(1);
        EXPECT_EQ(got, e);  // epochs come back dense and in order
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reduces, kEpochs);
  EXPECT_EQ(bar.epochs_completed(), kEpochs);
  for (std::uint64_t e = 0; e < kEpochs; ++e) EXPECT_EQ(reduce_epochs[e], e);
}

TEST(ShardMessage, TotalOrderIsTimeThenShardThenSeq) {
  std::vector<ShardMessage> msgs = {
      {2.0, 0, 0, 1}, {1.0, 1, 5, 2}, {1.0, 0, 7, 3},
      {1.0, 1, 2, 4}, {0.5, 3, 0, 5}, {2.0, 0, 1, 6},
  };
  std::sort(msgs.begin(), msgs.end());
  const std::vector<std::uint64_t> want = {5, 3, 4, 2, 1, 6};
  for (std::size_t i = 0; i < msgs.size(); ++i)
    EXPECT_EQ(msgs[i].payload, want[i]) << "position " << i;
}

TEST(ShardedSimulator, ExchangeDeliversDeterministicMergedInbox) {
  constexpr std::uint32_t kShards = 4;
  constexpr int kEpochs = 6;
  ShardedSimulator shards(kShards);

  // Per shard and epoch, record the exact inbox observed. Every shard posts
  // to every other shard with timestamps chosen so cross-shard ties must be
  // broken by shard id, and same-shard ties by seq. Thread scheduling
  // varies run to run; the inboxes must not.
  std::vector<std::vector<std::vector<ShardMessage>>> seen(
      kShards, std::vector<std::vector<ShardMessage>>(kEpochs));
  const auto st = shards.run_epochs([&](std::uint32_t s) {
    for (int e = 0; e < kEpochs; ++e) {
      for (std::uint32_t to = 0; to < kShards; ++to) {
        if (to == s) continue;
        // Two messages per (from, to) pair: identical t (seq breaks the
        // tie) plus one later message.
        shards.post(s, to, 10.0 * e + 1.0, 100 * s + to);
        shards.post(s, to, 10.0 * e + 1.0, 200 * s + to);
        shards.post(s, to, 10.0 * e + 2.0 + s, 300 * s + to);
      }
      const std::vector<ShardMessage>& inbox = shards.exchange(s);
      seen[s][e] = inbox;  // copy: the ref dies at the next exchange
    }
  });

  EXPECT_EQ(st.shards, kShards);
  EXPECT_GE(st.epochs, static_cast<std::uint64_t>(kEpochs));
  EXPECT_EQ(st.messages,
            static_cast<std::uint64_t>(kShards) * (kShards - 1) * 3 * kEpochs);

  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (int e = 0; e < kEpochs; ++e) {
      const auto& inbox = seen[s][e];
      ASSERT_EQ(inbox.size(), (kShards - 1) * 3u) << "shard " << s << " epoch " << e;
      // Sorted by (t, shard, seq) — and only messages addressed to s.
      EXPECT_TRUE(std::is_sorted(inbox.begin(), inbox.end()));
      for (const ShardMessage& m : inbox) {
        EXPECT_NE(m.shard, s);
        EXPECT_EQ(m.payload % 100, s);
      }
      // The tied-timestamp block comes first, ordered by origin shard then
      // seq: for each origin, payload 100*from+s precedes 200*from+s.
      for (std::size_t i = 0; i + 1 < 2 * (kShards - 1); i += 2) {
        EXPECT_EQ(inbox[i].t, inbox[i + 1].t);
        EXPECT_EQ(inbox[i].shard, inbox[i + 1].shard);
        EXPECT_LT(inbox[i].seq, inbox[i + 1].seq);
        // First post carries 100*from + s, the tied second 200*from + s.
        EXPECT_EQ(inbox[i].payload + 100 * inbox[i].shard, inbox[i + 1].payload);
      }
    }
  }

  // Re-running the identical scenario yields byte-identical inboxes — the
  // determinism contract, stated directly.
  ShardedSimulator again(kShards);
  std::vector<std::vector<std::vector<ShardMessage>>> seen2(
      kShards, std::vector<std::vector<ShardMessage>>(kEpochs));
  again.run_epochs([&](std::uint32_t s) {
    for (int e = 0; e < kEpochs; ++e) {
      for (std::uint32_t to = 0; to < kShards; ++to) {
        if (to == s) continue;
        again.post(s, to, 10.0 * e + 1.0, 100 * s + to);
        again.post(s, to, 10.0 * e + 1.0, 200 * s + to);
        again.post(s, to, 10.0 * e + 2.0 + s, 300 * s + to);
      }
      seen2[s][e] = again.exchange(s);
    }
  });
  for (std::uint32_t s = 0; s < kShards; ++s)
    for (int e = 0; e < kEpochs; ++e) EXPECT_EQ(seen[s][e], seen2[s][e]);
}

TEST(ShardedSimulator, SingleShardEpochModeRunsInline) {
  ShardedSimulator shards(1);
  int epochs_seen = 0;
  const auto st = shards.run_epochs([&](std::uint32_t s) {
    EXPECT_EQ(s, 0u);
    for (int e = 0; e < 3; ++e) {
      const auto& inbox = shards.exchange(0);
      EXPECT_TRUE(inbox.empty());  // nobody else to post
      ++epochs_seen;
    }
  });
  EXPECT_EQ(epochs_seen, 3);
  EXPECT_EQ(st.shards, 1u);
}

}  // namespace
}  // namespace hm::sim
