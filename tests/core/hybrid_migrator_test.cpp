#include "core/hybrid_migrator.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "session_fixture.h"

namespace hm::core {
namespace {

using testing::SessionFixture;
using storage::ChunkId;
using storage::kMiB;

std::unique_ptr<HybridSession> make_session(SessionFixture& f, HybridConfig cfg = {}) {
  auto s = std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec, cfg);
  f.mgr.begin_migration(s.get());
  return s;
}

TEST(HybridSession, PushPhaseStreamsModifiedChunksToDestination) {
  SessionFixture f;
  f.populate(8);
  auto session = make_session(f);
  session->start();
  f.s.run();  // let BACKGROUND_PUSH drain
  EXPECT_EQ(session->chunks_pushed(), 8u);
  EXPECT_EQ(session->remaining_size(), 0u);
}

TEST(HybridSession, PushedChunksLandInDestReplica) {
  SessionFixture f;
  f.populate(4);
  auto session = make_session(f);
  session->start();
  f.s.run();
  f.sync_and_transfer(*session);
  // After control transfer the manager's active replica is the destination.
  for (ChunkId c = 0; c < 4; ++c) {
    EXPECT_TRUE(f.mgr.replica().present(c)) << c;
    EXPECT_TRUE(f.mgr.replica().modified(c)) << c;
  }
  EXPECT_EQ(f.mgr.node(), 1u);
}

TEST(HybridSession, WriteDuringPushRequeuesChunk) {
  SessionFixture f;
  f.populate(2);
  auto session = make_session(f);
  session->start();
  f.s.run();  // both pushed
  EXPECT_EQ(session->chunks_pushed(), 2u);
  f.write_chunk_now(0);  // re-modified: must be queued and pushed again
  f.s.run();
  EXPECT_EQ(session->chunks_pushed(), 3u);
  EXPECT_EQ(session->write_count(0), 1u);
}

TEST(HybridSession, HotChunksAreNotPushed) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 2;
  auto session = make_session(f, cfg);
  session->start();
  // Write the same chunk 5 times while the session is active.
  for (int i = 0; i < 5; ++i) f.write_chunk_now(7);
  f.s.run();
  EXPECT_EQ(session->write_count(7), 5u);
  // Pushed at most Threshold times, the rest deferred to the pull phase.
  EXPECT_LE(session->transfer_count(7), 2u);
  EXPECT_EQ(session->remaining_size(), 1u);  // still remaining (hot)
}

TEST(HybridSession, PushQueueSkipsChunksThatWentHot) {
  SessionFixture f;
  // 20 cold chunks keep BACKGROUND_PUSH busy long enough for chunk 19 to go
  // hot (3 quick rewrites) before the push task reaches it.
  f.populate(20);
  HybridConfig cfg;
  cfg.threshold = 2;
  auto session = make_session(f, cfg);
  session->start();
  f.write_chunk_async(19);
  f.write_chunk_async(19);
  f.write_chunk_async(19);
  f.s.run();
  EXPECT_EQ(session->write_count(19), 3u);
  EXPECT_GT(session->push_skipped_hot(), 0u);
  EXPECT_EQ(session->remaining_size(), 1u);  // chunk 19 deferred to pull
}

TEST(HybridSession, TransferIoControlShipsRemainingList) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  auto session = make_session(f, cfg);
  session->start();
  for (int i = 0; i < 3; ++i) f.write_chunk_now(1);
  for (int i = 0; i < 2; ++i) f.write_chunk_now(2);
  f.s.run();
  const double control_before =
      f.cluster.network().traffic_bytes(net::TrafficClass::kControl);
  f.sync_and_transfer(*session);
  EXPECT_GT(f.cluster.network().traffic_bytes(net::TrafficClass::kControl),
            control_before);
  f.wait_release(*session);
  EXPECT_EQ(session->remaining_size(), 0u);
}

TEST(HybridSession, PullsOrderedByDecreasingWriteCount) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;  // everything written twice+ becomes hot, nothing pushed
  auto session = make_session(f, cfg);
  session->start();
  // Distinct write counts: chunk 5 -> 4 writes, chunk 2 -> 3, chunk 9 -> 2.
  for (int i = 0; i < 4; ++i) f.write_chunk_now(5);
  for (int i = 0; i < 3; ++i) f.write_chunk_now(2);
  for (int i = 0; i < 2; ++i) f.write_chunk_now(9);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  ASSERT_EQ(session->pull_log().size(), 3u);
  EXPECT_EQ(session->pull_log()[0], 5u);
  EXPECT_EQ(session->pull_log()[1], 2u);
  EXPECT_EQ(session->pull_log()[2], 9u);
}

TEST(HybridSession, OnDemandReadServedWithPriority) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  auto session = make_session(f, cfg);
  session->start();
  // 16 hot chunks with descending counts so chunk 0 would be pulled first
  // and chunk 15 last.
  for (ChunkId c = 0; c < 16; ++c)
    for (ChunkId k = 0; k < 18 - c; ++k) f.write_chunk_now(c);
  f.s.run();
  f.sync_and_transfer(*session);
  // Immediately demand-read the coldest chunk: it must not wait for the
  // other 15 background pulls.
  f.read_chunk_now(15);
  EXPECT_EQ(session->demand_pulls(), 1u);
  const auto& log = session->pull_log();
  const auto pos = std::find(log.begin(), log.end(), 15u) - log.begin();
  EXPECT_LT(pos, 4);  // served near the front, not last
  f.wait_release(*session);
  EXPECT_EQ(session->chunks_pulled(), 16u);
}

TEST(HybridSession, ReadOfInFlightPullWaitsForCompletion) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  auto session = make_session(f, cfg);
  session->start();
  for (int i = 0; i < 2; ++i) f.write_chunk_now(3);
  f.s.run();
  f.sync_and_transfer(*session);
  // The background pull of chunk 3 starts immediately; read it right away.
  f.read_chunk_now(3);
  // No second transfer of the same chunk: the read waited instead.
  EXPECT_EQ(session->transfer_count(3), 1u);
  f.wait_release(*session);
}

TEST(HybridSession, DestinationWriteCancelsPendingPull) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  auto session = make_session(f, cfg);
  session->start();
  for (int i = 0; i < 2; ++i) f.write_chunk_now(4);
  for (int i = 0; i < 3; ++i) f.write_chunk_now(8);  // pulled first (hotter)
  f.s.run();
  f.sync_and_transfer(*session);
  // Overwrite chunk 4 at the destination before its background pull starts.
  f.write_chunk_now(4);
  f.wait_release(*session);
  // Chunk 4 must not have been transferred after the overwrite: either it
  // was never pulled, or an in-flight pull was cancelled.
  EXPECT_TRUE(session->transfer_count(4) == 0 || session->cancelled_pulls() > 0);
  EXPECT_TRUE(f.mgr.replica().modified(4));
}

// Two pulls in flight at once: the background pull of the hottest chunk
// (2) and an on-demand pull of chunk 5. The pull slab holds one slot per
// pull, and a lookup must find the slot of the chunk asked about.
struct TwoPullsInFlight {
  static constexpr ChunkId kBackground = 2;
  static constexpr ChunkId kDemand = 5;
  SessionFixture f;
  std::unique_ptr<HybridSession> session;
  bool first_read_done = false;

  TwoPullsInFlight() {
    HybridConfig cfg;
    cfg.threshold = 1;  // nothing is pushed: both chunks move by pull
    session = make_session(f, cfg);
    session->start();
    for (int i = 0; i < 3; ++i) f.write_chunk_now(kBackground);
    for (int i = 0; i < 2; ++i) f.write_chunk_now(kDemand);
    f.s.run();
    f.sync_and_transfer(*session);  // the background pull of chunk 2 starts
    spawn_read(kDemand, &first_read_done);
    f.s.run_while_pending([&] { return session->demand_pulls() == 1; });
  }

  void spawn_read(ChunkId c, bool* done) {
    f.s.spawn([](MigrationManager* m, ChunkId ch, bool* d) -> sim::Task {
      co_await m->backend_read_chunk(ch);
      *d = true;
    }(&f.mgr, c, done));
  }
};

TEST(HybridSessionInFlightPulls, ReadWaitsOnItsOwnChunksPull) {
  TwoPullsInFlight t;
  ASSERT_EQ(t.session->chunks_pulled(), 0u) << "both pulls must be in flight";
  // A second read of chunk 5 must wait for chunk 5's pull. Woken by chunk
  // 2's (earlier) completion instead, it would find chunk 5 absent at the
  // destination and fetch base-image content from the repository.
  bool second_read_done = false;
  t.spawn_read(TwoPullsInFlight::kDemand, &second_read_done);
  t.f.wait_release(*t.session);
  t.f.s.run();
  EXPECT_TRUE(t.first_read_done);
  EXPECT_TRUE(second_read_done);
  EXPECT_EQ(t.session->pull_log(),
            (std::vector<ChunkId>{TwoPullsInFlight::kBackground, TwoPullsInFlight::kDemand}));
  EXPECT_EQ(t.f.mgr.repo_fetches(), 0u);
  EXPECT_EQ(t.session->transfer_count(TwoPullsInFlight::kDemand), 1u);
}

// The attempt can end before the session's own tasks have returned; the
// release of the per-chunk state then waits for the last one to exit.
TEST(HybridSessionRelease, WaitsForThePullTaskParkedBehindADemandRead) {
  TwoPullsInFlight t;
  t.f.wait_release(*t.session);
  t.session->release_transfer_state();
  // Chunk 2's pull finished first and the pull task parked at the gate the
  // demand read closed. Chunk 5's pull released the source and reopened
  // the gate, but the pull task has yet to resume and find its heap empty.
  EXPECT_FALSE(t.session->transfer_state_released());
  t.f.s.run();
  EXPECT_TRUE(t.session->transfer_state_released());
  EXPECT_EQ(t.session->chunks_pulled(), 2u);  // counters outlive the state
}

TEST(HybridSessionRelease, WaitsForAnAbortedPushToExit) {
  SessionFixture f;
  f.populate(8);
  auto session = make_session(f);
  session->start();
  f.s.run_while_pending([&] { return session->chunks_pushed() == 2; });
  session->abort();
  session->release_transfer_state();
  EXPECT_FALSE(session->transfer_state_released());  // chunk 2's push is in flight
  f.s.run();
  EXPECT_TRUE(session->transfer_state_released());
  EXPECT_EQ(session->chunks_pushed(), 3u);
  session->release_transfer_state();  // idempotent
  EXPECT_TRUE(session->transfer_state_released());
}

TEST(HybridSessionInFlightPulls, DestinationWriteCancelsOnlyItsOwnChunksPull) {
  TwoPullsInFlight t;
  ASSERT_EQ(t.session->chunks_pulled(), 0u) << "both pulls must be in flight";
  t.f.write_chunk_async(TwoPullsInFlight::kDemand);  // supersedes chunk 5 only
  t.f.wait_release(*t.session);
  t.f.s.run();
  EXPECT_TRUE(t.first_read_done);
  EXPECT_EQ(t.session->cancelled_pulls(), 1u);
  EXPECT_EQ(t.session->chunks_pulled(), 2u);
  // Chunk 2's pull was not the one cancelled: its content reached the
  // destination replica.
  EXPECT_TRUE(t.f.mgr.replica().present(TwoPullsInFlight::kBackground));
  EXPECT_TRUE(t.f.mgr.replica().modified(TwoPullsInFlight::kBackground));
  EXPECT_EQ(t.f.mgr.repo_fetches(), 0u);
}

TEST(HybridSession, SourceReleasedOnlyAfterAllPulls) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  auto session = make_session(f, cfg);
  session->start();
  for (ChunkId c = 0; c < 10; ++c)
    for (int i = 0; i < 2; ++i) f.write_chunk_now(c);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_EQ(session->chunks_pulled(), 10u);
  EXPECT_EQ(session->remaining_size(), 0u);
  EXPECT_GT(f.rec->storage_chunks_pulled, 0.0);
}

TEST(HybridSession, NoModifiedChunksReleasesImmediately) {
  SessionFixture f;
  auto session = make_session(f);
  session->start();
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_EQ(session->chunks_pushed(), 0u);
  EXPECT_EQ(session->chunks_pulled(), 0u);
}

TEST(HybridSession, PushTrafficAccountedAsStoragePush) {
  SessionFixture f;
  f.populate(5);
  auto session = make_session(f);
  session->start();
  f.s.run();
  EXPECT_DOUBLE_EQ(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush),
                   5.0 * kMiB);
}

TEST(HybridSession, PullTrafficAccountedAsStoragePull) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  auto session = make_session(f, cfg);
  session->start();
  for (int i = 0; i < 2; ++i) f.write_chunk_now(0);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_DOUBLE_EQ(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePull),
                   1.0 * kMiB);
}

TEST(HybridSession, FifoPullOrderAblation) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  cfg.pull_order = PullOrder::kFifo;
  auto session = make_session(f, cfg);
  session->start();
  for (ChunkId c : {9u, 3u, 6u})
    for (int i = 0; i < 2 + static_cast<int>(c); ++i) f.write_chunk_now(c);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  // FIFO = ascending chunk id regardless of write count.
  EXPECT_EQ(session->pull_log(), (std::vector<ChunkId>{3, 6, 9}));
}

TEST(HybridSession, RandomPullOrderStillCompletes) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  cfg.pull_order = PullOrder::kRandom;
  auto session = make_session(f, cfg);
  session->start();
  for (ChunkId c = 0; c < 12; ++c)
    for (int i = 0; i < 2; ++i) f.write_chunk_now(c);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_EQ(session->chunks_pulled(), 12u);
}

// Property sweep: for any threshold, no chunk is ever transferred more than
// Threshold + 1 times (Threshold pushes + at most one pull).
class ThresholdProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ThresholdProperty, PerChunkTransferBound) {
  const std::uint32_t threshold = GetParam();
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = threshold;
  auto session = make_session(f, cfg);
  session->start();
  sim::Rng rng(threshold * 7 + 1);
  // Random write storm over 16 chunks, interleaved with push progress.
  for (int i = 0; i < 200; ++i) {
    f.write_chunk_async(static_cast<ChunkId>(rng.uniform(16)));
    if (i % 10 == 0) f.s.run_until(f.s.now() + 0.01);
  }
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  for (ChunkId c = 0; c < 16; ++c) {
    EXPECT_LE(static_cast<std::uint64_t>(session->transfer_count(c)),
              static_cast<std::uint64_t>(threshold) + 1)
        << "chunk " << c << " exceeded the paper's transfer bound";
  }
  // And the destination replica holds every modified chunk.
  for (ChunkId c = 0; c < 16; ++c) EXPECT_TRUE(f.mgr.replica().present(c));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u,
                                           HybridConfig::kUnlimitedThreshold));

}  // namespace
}  // namespace hm::core

namespace hm::core {
namespace {

using testing::SessionFixture;

TEST(HybridDedup, DuplicatesMoveOnlyFingerprints) {
  SessionFixture f;
  f.populate(16);
  HybridConfig cfg;
  cfg.duplicate_fraction = 1.0;  // everything is a duplicate
  auto session = make_session(f, cfg);
  session->start();
  f.s.run();
  EXPECT_EQ(session->chunks_pushed(), 16u);
  EXPECT_EQ(session->dedup_hits(), 16u);
  // Fingerprints only: storage traffic far below 16 chunks.
  EXPECT_LT(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush),
            16.0 * 1024);
}

TEST(HybridDedup, FractionZeroMovesFullChunks) {
  SessionFixture f;
  f.populate(4);
  HybridConfig cfg;
  cfg.duplicate_fraction = 0.0;  // de-duplication off
  auto session = make_session(f, cfg);
  session->start();
  f.s.run();
  EXPECT_EQ(session->dedup_hits(), 0u);
  EXPECT_DOUBLE_EQ(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush),
                   4.0 * kMiB);
}

TEST(HybridDedup, PartialFractionSavesProportionally) {
  SessionFixture f;
  f.populate(32);
  HybridConfig cfg;
  cfg.duplicate_fraction = 0.5;
  auto session = make_session(f, cfg);
  session->start();
  f.s.run();
  // Statistically about half; allow a wide band for the deterministic draw.
  EXPECT_GT(session->dedup_hits(), 8u);
  EXPECT_LT(session->dedup_hits(), 24u);
}

TEST(HybridDedup, PullPhaseAlsoDeduplicates) {
  SessionFixture f;
  HybridConfig cfg;
  cfg.threshold = 1;
  cfg.duplicate_fraction = 1.0;
  auto session = make_session(f, cfg);
  session->start();
  for (int i = 0; i < 2; ++i) f.write_chunk_now(3);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_EQ(session->chunks_pulled(), 1u);
  EXPECT_LT(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePull), 1024.0);
}

TEST(HybridDedup, DuplicateStatusIsStablePerChunk) {
  SessionFixture f;
  f.populate(1);
  HybridConfig cfg;
  cfg.duplicate_fraction = 0.5;
  auto session = make_session(f, cfg);
  session->start();
  f.s.run();
  const auto hits_first = session->dedup_hits();
  // Re-push the same chunk: the draw must agree with the first transfer.
  f.write_chunk_now(0);
  f.s.run();
  const auto hits_second = session->dedup_hits();
  EXPECT_TRUE(hits_second == 2 * hits_first || (hits_first == 0 && hits_second == 0));
}

}  // namespace
}  // namespace hm::core
