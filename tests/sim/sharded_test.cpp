// Sharding machinery: the WorkerBudget token pool, the EpochBarrier
// rendezvous (reduce runs exactly once per epoch, with every peer parked),
// the (t, shard, seq) total order on ShardMessage, and ShardedSimulator's
// two execution modes — run() must cover every shard exactly once for any
// budget (including an empty one) within its worker cap, and after stop()
// only a prefix of the shards, and run_epochs()
// must deliver each shard a merged inbox whose content and order are
// independent of thread scheduling. These are the primitives the sharded-experiment determinism
// contract rests on, so the ordering assertions are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "sim/sharded.h"
#include "sim/worker_budget.h"

namespace hm::sim {
namespace {

TEST(WorkerBudget, GrantsWithinCapacity) {
  WorkerBudget b(4);
  EXPECT_EQ(b.capacity(), 4u);
  EXPECT_EQ(b.available(), 4u);
  EXPECT_EQ(b.acquire(3), 3u);
  EXPECT_EQ(b.available(), 1u);
  // Partial grant: only one token left.
  EXPECT_EQ(b.acquire(5), 1u);
  EXPECT_EQ(b.available(), 0u);
  EXPECT_EQ(b.acquire(1), 0u);
  b.release(4);
  EXPECT_EQ(b.available(), 4u);
}

TEST(WorkerBudget, ZeroCapacityGrantsNothing) {
  WorkerBudget b(0);
  EXPECT_EQ(b.acquire(8), 0u);
  EXPECT_EQ(b.acquire(0), 0u);
  EXPECT_EQ(b.available(), 0u);
}

TEST(WorkerBudget, SetCapacityReseeds) {
  WorkerBudget b(2);
  EXPECT_EQ(b.acquire(2), 2u);
  b.release(2);
  b.set_capacity(6);
  EXPECT_EQ(b.capacity(), 6u);
  EXPECT_EQ(b.acquire(6), 6u);
  b.release(6);
}

TEST(WorkerBudget, GrantRaiiReleasesOnScopeExit) {
  WorkerBudget b(3);
  {
    WorkerGrant g(b, 2);
    EXPECT_EQ(g.granted(), 2u);
    EXPECT_EQ(b.available(), 1u);
    WorkerGrant g2(b, 2);  // only one token remains
    EXPECT_EQ(g2.granted(), 1u);
    EXPECT_EQ(b.available(), 0u);
  }
  EXPECT_EQ(b.available(), 3u);
}

TEST(WorkerBudget, ConcurrentAcquireNeverOversubscribes) {
  WorkerBudget b(8);
  std::atomic<unsigned> total{0};
  std::atomic<unsigned> peak{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        const unsigned got = b.acquire(3);
        const unsigned now = total.fetch_add(got) + got;
        unsigned p = peak.load();
        while (now > p && !peak.compare_exchange_weak(p, now)) {
        }
        total.fetch_sub(got);
        b.release(got);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(peak.load(), 8u);
  EXPECT_EQ(b.available(), 8u);
}

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

TEST(ShardedSimulator, RunCoversEveryShardExactlyOnce) {
  constexpr std::uint32_t kShards = 7;
  ShardedSimulator shards(kShards);
  std::vector<std::atomic<int>> hits(kShards);
  const auto st = shards.run([&](std::uint32_t s) { hits[s].fetch_add(1); }, kShards);
  EXPECT_EQ(st.shards, kShards);
  EXPECT_GE(st.threads, 1u);
  for (std::uint32_t s = 0; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(ShardedSimulator, RunNeverExceedsTheWorkerCap) {
  // More shards than workers: a cap of 1 runs every shard in turn on the
  // caller, a cap of 2 adds at most one thread.
  constexpr std::uint32_t kShards = 6;
  ShardedSimulator one(kShards);
  std::vector<std::thread::id> ran_on(kShards);
  const auto st1 = one.run([&](std::uint32_t s) { ran_on[s] = std::this_thread::get_id(); }, 1);
  EXPECT_EQ(st1.threads, 1u);
  for (std::uint32_t s = 0; s < kShards; ++s) EXPECT_EQ(ran_on[s], std::this_thread::get_id());

  ShardedSimulator two(kShards);
  std::vector<std::atomic<int>> hits(kShards);
  const auto st2 = two.run([&](std::uint32_t s) { hits[s].fetch_add(1); }, 2);
  EXPECT_GE(st2.threads, 1u);
  EXPECT_LE(st2.threads, 2u);
  for (std::uint32_t s = 0; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 1);
}

TEST(ShardedSimulator, StopClaimsNoFurtherShards) {
  // Shard 3 stops the run. On one worker nothing after it runs; on several,
  // the shards in flight finish, but claims ascend, so what ran is always
  // a prefix 0..m that includes shard 3.
  constexpr std::uint32_t kShards = 12;
  for (std::uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ShardedSimulator shards(kShards);
    std::vector<std::atomic<int>> hits(kShards);
    shards.run(
        [&](std::uint32_t s) {
          hits[s].fetch_add(1);
          if (s == 3) shards.stop();
        },
        workers);
    std::uint32_t ran = 0;
    while (ran < kShards && hits[ran].load() == 1) ++ran;
    EXPECT_GE(ran, 4u);
    if (workers == 1) EXPECT_EQ(ran, 4u);
    for (std::uint32_t s = ran; s < kShards; ++s) EXPECT_EQ(hits[s].load(), 0) << s;
  }
}

TEST(ShardedSimulator, RunCompletesOnCallerAloneWithEmptyBudget) {
  // Drain the process budget: run() must still complete (the caller always
  // participates; grants are a wall-clock concern only).
  WorkerBudget& global = WorkerBudget::instance();
  const unsigned saved = global.capacity();
  global.set_capacity(0);
  ShardedSimulator shards(4);
  std::vector<std::atomic<int>> hits(4);
  const auto st = shards.run([&](std::uint32_t s) { hits[s].fetch_add(1); }, 4);
  global.set_capacity(saved);
  EXPECT_EQ(st.threads, 1u);  // the caller, alone
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_EQ(hits[s].load(), 1);
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
  EXPECT_EQ(st.threads, kShards);  // dedicated thread per shard
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
