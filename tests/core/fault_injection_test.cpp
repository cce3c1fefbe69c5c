// Abort / retry / resume with partial chunk state, driven directly at the
// session layer: an aborted attempt surrenders its partial destination
// replica (take_partial_destination), the manager keeps the preserved valid
// set honest while the VM writes between attempts, and a resumed session
// (adopt) never re-pushes still-current chunks.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "core/hybrid_migrator.h"
#include "core/mirror_migrator.h"
#include "core/precopy_migrator.h"
#include "session_fixture.h"

namespace hm::core {
namespace {

using storage::ChunkId;
using testing::SessionFixture;

template <class Session>
std::unique_ptr<Session> make_session(SessionFixture& f) {
  auto s = std::make_unique<Session>(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec);
  f.mgr.begin_migration(s.get());
  return s;
}

void step_until(sim::Simulator& s, const std::function<bool()>& pred) {
  while (!pred() && s.step()) {
  }
}

// One salvage case: drive one strategy's session to an aborted attempt (its
// tasks may still be in flight) and check, once they have wound down, what
// its salvage held beyond the shared contract.
struct SalvageCase {
  std::string name;
  std::function<std::unique_ptr<StorageMigrationSession>(SessionFixture&)> abort_attempt;
  std::function<void(StorageMigrationSession&, const MigrationManager::ResumeState&)> check;
};

void PrintTo(const SalvageCase& c, std::ostream* os) { *os << c.name; }

// Hybrid, aborted a few chunks into the push.
SalvageCase hybrid_abort_mid_push() {
  return {"HybridAbortMidPush",
          [](SessionFixture& f) -> std::unique_ptr<StorageMigrationSession> {
            f.populate(8);
            auto session = make_session<HybridSession>(f);
            session->start();
            // A chunk takes ~30 ms to push (55 MB/s disk read + 100 MB/s
            // wire): stop a few chunks in. populate() advanced the clock.
            f.s.run_until(f.s.now() + 0.1);
            session->abort();
            f.s.run();  // the push loop observes the flag and unwinds
            return session;
          },
          [](StorageMigrationSession& s, const MigrationManager::ResumeState& state) {
            const std::uint64_t pushed = static_cast<HybridSession&>(s).chunks_pushed();
            EXPECT_GT(pushed, 0u);
            EXPECT_LT(pushed, 8u);
            EXPECT_EQ(state.valid.count(), pushed);
          }};
}

// Hybrid, salvaged while chunk 2's push is on the wire. A preemption aborts
// without failing a flow, so the push completes after the salvage took the
// replica: it must skip the write instead of writing through a null store.
SalvageCase hybrid_push_in_flight_at_salvage() {
  return {"HybridPushInFlightAtSalvage",
          [](SessionFixture& f) -> std::unique_ptr<StorageMigrationSession> {
            f.populate(8);
            auto session = make_session<HybridSession>(f);
            session->start();
            step_until(f.s, [&] { return session->chunks_pushed() >= 2; });
            session->abort();
            return session;
          },
          [](StorageMigrationSession& s, const MigrationManager::ResumeState& state) {
            EXPECT_EQ(state.valid.count(), 2u);
            EXPECT_EQ(static_cast<HybridSession&>(s).chunks_pushed(), 2u);
          }};
}

// Hybrid after the full push, with chunk 2 written again: at threshold 1
// the write makes it hot, so it stays in RemainingSet for the pull phase
// and its destination copy is outdated.
SalvageCase hybrid_redirtied_chunk() {
  return {"HybridRedirtiedChunk",
          [](SessionFixture& f) -> std::unique_ptr<StorageMigrationSession> {
            f.populate(4);
            HybridConfig cfg;
            cfg.threshold = 1;
            auto session = std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr,
                                                           /*dst=*/1, *f.rec, cfg);
            f.mgr.begin_migration(session.get());
            session->start();
            f.s.run();
            f.write_chunk_now(2);
            session->abort();
            f.s.run();
            return session;
          },
          [](StorageMigrationSession& s, const MigrationManager::ResumeState& state) {
            EXPECT_EQ(static_cast<HybridSession&>(s).chunks_pushed(), 4u);
            EXPECT_EQ(state.valid.count(), 3u);
            EXPECT_FALSE(state.valid.test(2));
          }};
}

// Precopy after a full round, with chunk 1 re-dirtied by a guest write: its
// destination copy is outdated and must not be reported as valid.
SalvageCase precopy_redirtied_chunk() {
  return {"PrecopyRedirtiedChunk",
          [](SessionFixture& f) -> std::unique_ptr<StorageMigrationSession> {
            f.populate(4);
            auto session = make_session<PrecopySession>(f);
            session->start();  // bulk phase queues all 4 allocated chunks
            bool done = false;
            f.s.spawn([](PrecopySession* ss, bool* d) -> sim::Task {
              co_await ss->storage_round();
              *d = true;
            }(session.get(), &done));
            f.s.run_while_pending([&] { return done; });
            EXPECT_EQ(session->chunks_sent(), 4u);
            f.write_chunk_now(1);
            session->abort();
            f.s.run();
            return session;
          },
          [](StorageMigrationSession&, const MigrationManager::ResumeState& state) {
            EXPECT_TRUE(state.valid.test(0));
            EXPECT_FALSE(state.valid.test(1));
            EXPECT_TRUE(state.valid.test(2));
            EXPECT_TRUE(state.valid.test(3));
          }};
}

// Mirror, aborted after its first background batch and one mirrored write.
SalvageCase mirror_abort_after_first_batch() {
  return {"MirrorAbortAfterFirstBatch",
          [](SessionFixture& f) -> std::unique_ptr<StorageMigrationSession> {
            f.populate(8);
            auto session = make_session<MirrorSession>(f);
            session->start();
            step_until(f.s, [&] {
              return session->chunks_copied_background() >= MirrorSession::kBatchChunks;
            });
            f.write_chunk_async(40);
            step_until(f.s, [&] { return session->writes_mirrored() >= 1; });
            session->abort();
            f.s.run();
            return session;
          },
          [](StorageMigrationSession& s, const MigrationManager::ResumeState& state) {
            const auto& m = static_cast<MirrorSession&>(s);
            EXPECT_EQ(m.writes_mirrored(), 1u);
            EXPECT_TRUE(state.valid.test(40));
            EXPECT_EQ(state.valid.count(), m.chunks_copied_background() + 1);
          }};
}

// Mirror, salvaged while the rest of the first batch is being written: the
// write already begun (chunk 1) lands, the rest of the batch is skipped.
SalvageCase mirror_batch_in_flight_at_salvage() {
  return {"MirrorBatchInFlightAtSalvage",
          [](SessionFixture& f) -> std::unique_ptr<StorageMigrationSession> {
            f.populate(8);
            auto session = make_session<MirrorSession>(f);
            session->start();
            step_until(f.s, [&] { return session->chunks_copied_background() >= 1; });
            session->abort();
            return session;
          },
          [](StorageMigrationSession& s, const MigrationManager::ResumeState& state) {
            EXPECT_EQ(state.valid.count(), 1u);
            EXPECT_EQ(static_cast<MirrorSession&>(s).chunks_copied_background(), 2u);
          }};
}

class SessionSalvage : public ::testing::TestWithParam<SalvageCase> {};

// The salvage holds exactly the chunks modified at the destination that the
// strategy still vouches for, hands the replica over once, and the tasks
// still in flight wind down without it.
TEST_P(SessionSalvage, ValidIsModifiedAndCurrentAtDestination) {
  SessionFixture f;
  std::unique_ptr<StorageMigrationSession> session = GetParam().abort_attempt(f);
  ASSERT_TRUE(session->aborted());
  const storage::ChunkStore* dst = session->destination_store();
  ASSERT_NE(dst, nullptr);
  util::DirtyBitmap expected(dst->num_chunks());
  dst->for_each_modified([&](ChunkId c) {
    if (session->current_at_destination(c)) expected.set(c);
  });

  std::optional<MigrationManager::ResumeState> state = session->take_partial_destination();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->dst_store.get(), dst);
  EXPECT_EQ(state->dst_node, 1u);
  ASSERT_EQ(state->valid.size(), expected.size());
  for (ChunkId c = 0; c < expected.size(); ++c)
    EXPECT_EQ(state->valid.test(c), expected.test(c)) << c;
  EXPECT_FALSE(session->take_partial_destination().has_value());
  EXPECT_EQ(session->destination_store(), nullptr);

  // `state` outlives the run: the replica's own flusher may still be busy.
  session->release_transfer_state();
  f.s.run();
  EXPECT_TRUE(session->transfer_state_released());
  GetParam().check(*session, *state);
  f.mgr.end_migration();
}

INSTANTIATE_TEST_SUITE_P(Strategies, SessionSalvage,
                         ::testing::Values(hybrid_abort_mid_push(),
                                           hybrid_push_in_flight_at_salvage(),
                                           hybrid_redirtied_chunk(),
                                           precopy_redirtied_chunk(),
                                           mirror_abort_after_first_batch(),
                                           mirror_batch_in_flight_at_salvage()),
                         [](const ::testing::TestParamInfo<SalvageCase>& info) {
                           return info.param.name;
                         });

TEST(FaultInjection, LocalWriteBetweenAttemptsInvalidatesResumedChunk) {
  SessionFixture f;
  f.populate(4);
  auto session = make_session<HybridSession>(f);
  session->start();
  f.s.run();
  session->abort();
  f.s.run();
  f.mgr.resume_state() = session->take_partial_destination();
  ASSERT_TRUE(f.mgr.resume_state().has_value());
  EXPECT_EQ(f.mgr.resume_state()->valid.count(), 4u);
  f.mgr.end_migration();
  // The VM keeps running between attempts: a source write makes the
  // preserved destination copy of that chunk stale.
  f.write_chunk_now(2);
  ASSERT_TRUE(f.mgr.resume_state().has_value());
  EXPECT_FALSE(f.mgr.resume_state()->valid.test(2));
  EXPECT_TRUE(f.mgr.resume_state()->valid.test(0));
  EXPECT_TRUE(f.mgr.resume_state()->valid.test(1));
  EXPECT_TRUE(f.mgr.resume_state()->valid.test(3));
  EXPECT_EQ(f.mgr.resume_state()->valid.count(), 3u);
}

TEST(FaultInjection, AdoptedDestinationSkipsStillValidChunks) {
  SessionFixture f;
  f.populate(6);
  auto first = make_session<HybridSession>(f);
  first->start();
  f.s.run();
  EXPECT_EQ(first->chunks_pushed(), 6u);
  first->abort();
  f.s.run();
  std::optional<MigrationManager::ResumeState> state = first->take_partial_destination();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->valid.count(), 6u);
  f.mgr.end_migration();
  // Chunk 3 went stale between attempts (e.g. a guest write).
  state->valid.reset(3);
  auto second = make_session<HybridSession>(f);
  second->adopt(std::move(*state));
  second->start();
  f.s.run();
  // Only the invalidated chunk crosses the wire again.
  EXPECT_EQ(second->chunks_pushed(), 1u);
  EXPECT_EQ(second->remaining_size(), 0u);
  f.sync_and_transfer(*second);
  for (ChunkId c = 0; c < 6; ++c) {
    EXPECT_TRUE(f.mgr.replica().present(c)) << c;
    EXPECT_TRUE(f.mgr.replica().modified(c)) << c;
  }
  f.wait_release(*second);
  f.mgr.end_migration();
}

TEST(FaultInjection, AbortAfterControlTransferYieldsNoPartialState) {
  SessionFixture f;
  f.populate(3);
  auto session = make_session<HybridSession>(f);
  session->start();
  f.s.run();
  f.sync_and_transfer(*session);
  EXPECT_TRUE(session->control_transferred());
  // Control moved: the destination replica is live, not salvage.
  EXPECT_FALSE(session->take_partial_destination().has_value());
  f.wait_release(*session);
  f.mgr.end_migration();
}

}  // namespace
}  // namespace hm::core
