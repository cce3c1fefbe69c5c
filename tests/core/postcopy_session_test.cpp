// Pure post-copy (Section 5.2.2): per the paper it "is based on our
// approach and simply remains passive during the push phase" — a
// HybridSession with push_enabled = false.
#include <gtest/gtest.h>

#include "core/hybrid_migrator.h"

#include "session_fixture.h"

namespace hm::core {
namespace {

using testing::SessionFixture;
using storage::ChunkId;
using storage::kMiB;

std::unique_ptr<HybridSession> make_session(SessionFixture& f,
                                            PullOrder order = PullOrder::kByWriteCount) {
  HybridConfig cfg;
  cfg.push_enabled = false;
  cfg.pull_order = order;
  auto s = std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec, cfg);
  f.mgr.begin_migration(s.get());
  return s;
}

TEST(PostcopySession, NeverPushes) {
  SessionFixture f;
  f.populate(10);
  auto session = make_session(f);
  session->start();
  f.s.run();  // plenty of idle time in the active phase
  EXPECT_EQ(session->chunks_pushed(), 0u);
  EXPECT_DOUBLE_EQ(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush),
                   0.0);
}

TEST(PostcopySession, EveryChunkTransferredExactlyOnce) {
  SessionFixture f;
  f.populate(10);
  auto session = make_session(f);
  session->start();
  // Heavy rewriting during the active phase: post-copy does not care.
  for (int i = 0; i < 5; ++i)
    for (ChunkId c = 0; c < 10; ++c) f.write_chunk_now(c);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  for (ChunkId c = 0; c < 10; ++c)
    EXPECT_EQ(session->transfer_count(c), 1u) << "chunk " << c;
  EXPECT_EQ(session->chunks_pulled(), 10u);
}

TEST(PostcopySession, GuaranteedConvergenceRegardlessOfWriteRate) {
  SessionFixture f;
  auto session = make_session(f);
  session->start();
  // Write storm with no pauses at all.
  for (int i = 0; i < 100; ++i) f.write_chunk_async(static_cast<ChunkId>(i % 8));
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_EQ(session->remaining_size(), 0u);
  EXPECT_LE(session->chunks_pulled(), 8u);
}

TEST(PostcopySession, WriteCountsStillDrivePullPriority) {
  SessionFixture f;
  auto session = make_session(f);
  session->start();
  for (int i = 0; i < 5; ++i) f.write_chunk_now(2);
  for (int i = 0; i < 3; ++i) f.write_chunk_now(6);
  for (int i = 0; i < 1; ++i) f.write_chunk_now(4);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  ASSERT_EQ(session->pull_log().size(), 3u);
  EXPECT_EQ(session->pull_log()[0], 2u);  // hottest first
  EXPECT_EQ(session->pull_log()[1], 6u);
  EXPECT_EQ(session->pull_log()[2], 4u);
}

TEST(PostcopySession, MinimalTrafficProperty) {
  // Postcopy moves every modified chunk exactly once: total storage traffic
  // equals the modified set size — the minimum possible (Figure 3(b)).
  SessionFixture f;
  f.populate(7);
  auto session = make_session(f);
  session->start();
  for (int i = 0; i < 3; ++i) f.write_chunk_now(0);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  const double storage_traffic =
      f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush) +
      f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePull);
  EXPECT_DOUBLE_EQ(storage_traffic, 7.0 * kMiB);
}

TEST(PostcopySession, FifoOrderOption) {
  SessionFixture f;
  auto session = make_session(f, PullOrder::kFifo);
  session->start();
  for (int i = 0; i < 4; ++i) f.write_chunk_now(9);
  for (int i = 0; i < 2; ++i) f.write_chunk_now(1);
  f.s.run();
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  EXPECT_EQ(session->pull_log(), (std::vector<ChunkId>{1, 9}));
}

}  // namespace
}  // namespace hm::core
