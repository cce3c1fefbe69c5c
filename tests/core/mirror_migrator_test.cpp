#include "core/mirror_migrator.h"

#include <gtest/gtest.h>

#include "session_fixture.h"

namespace hm::core {
namespace {

using testing::SessionFixture;
using storage::ChunkId;
using storage::kMiB;

std::unique_ptr<MirrorSession> make_session(SessionFixture& f) {
  auto s = std::make_unique<MirrorSession>(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec);
  f.mgr.begin_migration(s.get());
  return s;
}

// Haselhorst-style device-level mirroring: the background copy streams the
// whole disk, modified or not.
TEST(MirrorSession, BackgroundCopyCopiesWholeDisk) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session(f);
  session->start();
  f.s.run();
  EXPECT_EQ(session->chunks_copied_background(), f.mgr.replica().num_chunks());
}

TEST(MirrorSession, BackgroundCopyTransfersExistingChunks) {
  SessionFixture f;
  f.populate(6);
  auto session = make_session(f);
  session->start();
  f.s.run();
  f.sync_and_transfer(*session);
  for (ChunkId c = 0; c < 6; ++c) EXPECT_TRUE(f.mgr.replica().present(c)) << c;
}

TEST(MirrorSession, WritesAreMirroredSynchronously) {
  SessionFixture f;
  auto session = make_session(f);
  session->start();
  f.s.run();
  f.write_chunk_now(3);
  EXPECT_EQ(session->writes_mirrored(), 1u);
  // The chunk is already on the destination before control transfer.
  f.sync_and_transfer(*session);
  EXPECT_TRUE(f.mgr.replica().present(3));
}

TEST(MirrorSession, MirroredWriteSlowerThanLocalWrite) {
  // The defining cost of mirroring: a write completes only after the remote
  // copy is durable too, so per-write latency includes a network hop.
  SessionFixture base_f;
  const double t0 = base_f.s.now();
  base_f.write_chunk_now(0);  // no session: local write only
  const double local_latency = base_f.s.now() - t0;

  SessionFixture f;
  auto session = make_session(f);
  session->start();
  f.s.run();
  const double t1 = f.s.now();
  f.write_chunk_now(0);
  const double mirrored_latency = f.s.now() - t1;
  EXPECT_GT(mirrored_latency, local_latency);
}

TEST(MirrorSession, SyncWaitsForBackgroundCopy) {
  SessionFixture f;
  f.populate(20);  // a 64 MiB disk to copy at ~100 MB/s
  auto session = make_session(f);
  session->start();
  const double t0 = f.s.now();
  f.sync_and_transfer(*session);
  EXPECT_GT(f.s.now() - t0, 0.5);  // had to wait for the copy
  EXPECT_EQ(session->chunks_copied_background(), f.mgr.replica().num_chunks());
}

TEST(MirrorSession, BackgroundCopySkipsAlreadyMirroredChunks) {
  SessionFixture f;
  f.populate(4);
  auto session = make_session(f);
  session->start();
  // A synchronous write to chunk 40 lands long before the background copy
  // batches it (16 chunks per batch); the background pass must then skip
  // it instead of copying it a second time.
  f.write_chunk_now(40);
  f.s.run();
  EXPECT_EQ(session->writes_mirrored(), 1u);
  EXPECT_EQ(session->chunks_copied_background(), f.mgr.replica().num_chunks() - 1);
}

TEST(MirrorSession, DestinationIsFullReplicaAtControlTransfer) {
  SessionFixture f;
  f.populate(5);
  auto session = make_session(f);
  session->start();
  f.write_chunk_now(7);
  f.write_chunk_now(9);
  f.sync_and_transfer(*session);
  for (ChunkId c = 0; c < f.mgr.replica().num_chunks(); ++c)
    EXPECT_TRUE(f.mgr.replica().present(c)) << c;
}

TEST(MirrorSession, SourceReleasedImmediatelyAfterControl) {
  SessionFixture f;
  f.populate(2);
  auto session = make_session(f);
  session->start();
  f.sync_and_transfer(*session);
  const double t = f.s.now();
  f.wait_release(*session);
  EXPECT_DOUBLE_EQ(f.s.now(), t);
}

TEST(MirrorSession, WritesAfterControlStayLocal) {
  SessionFixture f;
  f.populate(1);
  auto session = make_session(f);
  session->start();
  f.sync_and_transfer(*session);
  const auto mirrored_before = session->writes_mirrored();
  f.write_chunk_now(11);
  EXPECT_EQ(session->writes_mirrored(), mirrored_before);
  EXPECT_TRUE(f.mgr.replica().modified(11));
}

// After an abort the background copy may still be mid-batch: the release
// of the mirrored set waits until it has returned.
TEST(MirrorSession, ReleaseWaitsForTheAbortedBackgroundCopy) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session(f);
  session->start();
  f.s.run_while_pending([&] { return session->chunks_copied_background() > 0; });
  session->abort();
  session->release_transfer_state();
  EXPECT_FALSE(session->transfer_state_released());
  f.s.run();
  EXPECT_TRUE(session->transfer_state_released());
}

TEST(MirrorSession, TrafficAccountedAsStoragePush) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session(f);
  session->start();
  f.s.run();
  f.write_chunk_now(8);
  // The whole disk in the background plus the one mirrored write.
  const double chunks = f.mgr.replica().num_chunks();
  EXPECT_DOUBLE_EQ(f.cluster.network().traffic_bytes(net::TrafficClass::kStoragePush),
                   (chunks + 1) * kMiB);
}

}  // namespace
}  // namespace hm::core
