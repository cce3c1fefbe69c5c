#include "core/precopy_migrator.h"

#include <gtest/gtest.h>

#include "session_fixture.h"

namespace hm::core {
namespace {

using testing::SessionFixture;
using storage::ChunkId;
using storage::kMiB;

std::unique_ptr<PrecopySession> make_session(SessionFixture& f) {
  auto s = std::make_unique<PrecopySession>(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec);
  f.mgr.begin_migration(s.get());
  return s;
}

void run_round(SessionFixture& f, PrecopySession& session) {
  bool done = false;
  f.s.spawn([](PrecopySession* ss, bool* d) -> sim::Task {
    co_await ss->storage_round();
    *d = true;
  }(&session, &done));
  f.s.run_while_pending([&] { return done; });
}

TEST(PrecopySession, ConvergesWithMemory) {
  SessionFixture f;
  auto session = make_session(f);
  EXPECT_TRUE(session->converges_with_memory());
}

TEST(PrecopySession, BulkPhaseQueuesAllModifiedChunks) {
  SessionFixture f;
  f.populate(6);
  auto session = make_session(f);
  session->start();
  EXPECT_DOUBLE_EQ(session->residual_storage_bytes(), 6.0 * kMiB);
}

TEST(PrecopySession, StorageRoundDrainsDirtySet) {
  SessionFixture f;
  f.populate(6);
  auto session = make_session(f);
  session->start();
  run_round(f, *session);
  EXPECT_DOUBLE_EQ(session->residual_storage_bytes(), 0.0);
  EXPECT_EQ(session->chunks_sent(), 6u);
  EXPECT_EQ(session->rounds(), 1u);
}

TEST(PrecopySession, RewrittenChunksAreResent) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session(f);
  session->start();
  run_round(f, *session);
  // Rewrite one chunk: the next round must re-send it — the repeated
  // transfer pathology the paper criticizes.
  f.write_chunk_now(1);
  EXPECT_DOUBLE_EQ(session->residual_storage_bytes(), 1.0 * kMiB);
  run_round(f, *session);
  EXPECT_EQ(session->send_count(1), 2u);
  EXPECT_EQ(session->chunks_sent(), 4u);
}

TEST(PrecopySession, UnboundedResendUnderRepeatedWrites) {
  SessionFixture f;
  f.populate(1);
  auto session = make_session(f);
  session->start();
  for (int round = 0; round < 10; ++round) {
    run_round(f, *session);
    f.write_chunk_now(0);
  }
  run_round(f, *session);
  // Unlike the hybrid scheme (bounded by Threshold), precopy has no cap.
  EXPECT_GE(session->send_count(0), 10u);
}

TEST(PrecopySession, PreControlTransferFlushesResidual) {
  SessionFixture f;
  f.populate(4);
  auto session = make_session(f);
  session->start();
  f.sync_and_transfer(*session);
  EXPECT_DOUBLE_EQ(session->residual_storage_bytes(), 0.0);
  // Destination replica complete after control transfer.
  for (ChunkId c = 0; c < 4; ++c) EXPECT_TRUE(f.mgr.replica().present(c));
}

TEST(PrecopySession, SourceReleasedImmediatelyAfterControl) {
  SessionFixture f;
  f.populate(2);
  auto session = make_session(f);
  session->start();
  f.sync_and_transfer(*session);
  const double t = f.s.now();
  f.wait_release(*session);
  EXPECT_DOUBLE_EQ(f.s.now(), t);  // no passive phase
}

TEST(PrecopySession, WritesAfterControlTransferStayLocal) {
  SessionFixture f;
  f.populate(1);
  auto session = make_session(f);
  session->start();
  f.sync_and_transfer(*session);
  const auto sent_before = session->chunks_sent();
  f.write_chunk_now(9);
  EXPECT_EQ(session->chunks_sent(), sent_before);  // no more transfers
  EXPECT_TRUE(f.mgr.replica().modified(9));
}

TEST(PrecopySession, TrafficAccountedAsStoragePush) {
  SessionFixture f;
  f.populate(5);
  auto session = make_session(f);
  session->start();
  run_round(f, *session);
  EXPECT_DOUBLE_EQ(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush),
                   5.0 * kMiB);
}

TEST(PrecopySession, CowTracksAllocations) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session(f);
  session->start();
  f.write_chunk_now(10);
  EXPECT_EQ(session->cow().allocated_count(), 4u);
}

}  // namespace
}  // namespace hm::core
