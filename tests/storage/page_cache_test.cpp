#include "storage/page_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.h"

namespace hm::storage {
namespace {

/// Backend recording chunk traffic with a configurable service time.
class FakeBackend final : public BlockBackend {
 public:
  FakeBackend(sim::Simulator& s, double op_s) : s_(s), op_s_(op_s) {}
  sim::Task backend_read_chunk(ChunkId c) override {
    reads.push_back(c);
    co_await s_.delay(op_s_);
  }
  sim::Task backend_write_chunk(ChunkId c) override {
    co_await s_.delay(op_s_);
    writes.push_back(c);
  }
  std::vector<ChunkId> reads, writes;

 private:
  sim::Simulator& s_;
  double op_s_;
};

struct CacheFixture {
  sim::Simulator s;
  FakeBackend backend;
  ImageConfig img{16 * kMiB, static_cast<std::uint32_t>(kMiB)};
  PageCache cache;
  explicit CacheFixture(PageCacheConfig cfg = make_cfg(), double backend_op_s = 0.001)
      : backend(s, backend_op_s), cache(s, backend, img, cfg) {}

  static PageCacheConfig make_cfg() {
    PageCacheConfig cfg;
    cfg.capacity_bytes = 8 * kMiB;     // 8 chunks
    cfg.dirty_limit_bytes = 4 * kMiB;  // 4 chunks
    cfg.write_Bps = 100e6;
    cfg.read_Bps = 1e9;
    return cfg;
  }

  void run_write(ChunkId c) {
    s.spawn([](PageCache* pc, ChunkId ch) -> sim::Task { co_await pc->write_chunk(ch); }(
        &cache, c));
    s.run();
  }
  void run_read(ChunkId c) {
    s.spawn([](PageCache* pc, ChunkId ch) -> sim::Task { co_await pc->read_chunk(ch); }(
        &cache, c));
    s.run();
  }
  void run_fsync() {
    s.spawn([](PageCache* pc) -> sim::Task { co_await pc->fsync(); }(&cache));
    s.run();
  }
};

TEST(PageCache, WriteLandsInCacheAndWritesBack) {
  CacheFixture f;
  f.run_write(0);
  EXPECT_EQ(f.backend.writes, (std::vector<ChunkId>{0}));  // run() drains writeback
  EXPECT_EQ(f.cache.dirty_bytes(), 0u);
}

TEST(PageCache, ReadHitAvoidsBackend) {
  CacheFixture f;
  f.run_write(0);
  f.run_read(0);
  EXPECT_TRUE(f.backend.reads.empty());
  EXPECT_EQ(f.cache.hits(), 1u);
}

TEST(PageCache, ReadMissFetchesThroughBackend) {
  CacheFixture f;
  f.run_read(3);
  EXPECT_EQ(f.backend.reads, (std::vector<ChunkId>{3}));
  EXPECT_EQ(f.cache.misses(), 1u);
  // Second read hits.
  f.run_read(3);
  EXPECT_EQ(f.backend.reads.size(), 1u);
  EXPECT_EQ(f.cache.hits(), 1u);
}

TEST(PageCache, RepeatedWritesCoalesceInCache) {
  // With a slow backend, multiple overwrites of the same chunk while the
  // first write-back is pending must not multiply backend writes 1:1.
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.5);
  f.s.spawn([](PageCache* pc) -> sim::Task {
    for (int i = 0; i < 10; ++i) co_await pc->write_chunk(0);
  }(&f.cache));
  f.s.run();
  EXPECT_LT(f.backend.writes.size(), 10u);
  EXPECT_GE(f.backend.writes.size(), 1u);
}

TEST(PageCache, TouchHookFiresOnWriteAndFill) {
  CacheFixture f;
  std::vector<ChunkId> touched;
  f.cache.set_touch_hook([&](ChunkId c) { touched.push_back(c); });
  f.run_write(1);
  f.run_read(2);  // miss -> fill -> touch
  f.run_read(1);  // hit -> no touch
  EXPECT_EQ(touched, (std::vector<ChunkId>{1, 2}));
}

TEST(PageCache, DirtyThrottlingLimitsWriterSpeed) {
  // Backend far slower than the guest write speed: the writer must be
  // throttled once dirty_limit is reached.
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.1);
  f.s.spawn([](PageCache* pc) -> sim::Task {
    for (ChunkId c = 0; c < 8; ++c) co_await pc->write_chunk(c);
  }(&f.cache));
  f.s.run();
  EXPECT_GT(f.cache.throttle_events(), 0u);
  // Unthrottled, 8 x 1 MiB at 100 MB/s would take ~0.084 s; with a 0.1 s/op
  // backend and a 4-chunk dirty limit, several ops must wait for write-back.
  EXPECT_GT(f.s.now(), 0.3);
}

TEST(PageCache, FsyncDrainsAllDirtyChunks) {
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.05);
  f.s.spawn([](PageCache* pc) -> sim::Task {
    for (ChunkId c = 0; c < 3; ++c) co_await pc->write_chunk(c);
    co_await pc->fsync();
  }(&f.cache));
  f.s.run();
  EXPECT_EQ(f.backend.writes.size(), 3u);
  EXPECT_EQ(f.cache.dirty_bytes(), 0u);
}

TEST(PageCache, CapacityEvictionDropsCleanChunks) {
  CacheFixture f;
  // Fill the 8-chunk cache with clean data via read misses, then two more.
  for (ChunkId c = 0; c < 10; ++c) f.run_read(c);
  EXPECT_LE(f.cache.cached_chunks(), 8u);
  // Re-reading an evicted chunk misses again.
  const auto misses_before = f.cache.misses();
  f.run_read(0);
  EXPECT_EQ(f.cache.misses(), misses_before + 1);
}

// A write to a resident chunk needs no room, so a full cache evicts
// nothing for it: not one sized to its image (its LRU set keeps no
// links), nor a smaller one that can evict.
TEST(PageCache, WriteToResidentChunkEvictsNothingWhenFull) {
  for (const std::uint64_t capacity : {16 * kMiB, 8 * kMiB}) {
    PageCacheConfig cfg = CacheFixture::make_cfg();
    cfg.capacity_bytes = capacity;
    CacheFixture f(cfg);
    const auto slots = static_cast<ChunkId>(capacity / kMiB);
    std::vector<ChunkId> released;
    f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
    for (ChunkId c = 0; c < slots; ++c) f.run_read(c);  // full, every chunk clean
    ASSERT_EQ(f.cache.cached_chunks(), slots);
    f.run_write(0);  // chunk 0 is the coldest
    EXPECT_TRUE(released.empty()) << slots << "-chunk cache";
    EXPECT_EQ(f.cache.cached_chunks(), slots);
    EXPECT_EQ(f.backend.writes, (std::vector<ChunkId>{0}));
    const auto misses_before = f.cache.misses();
    for (ChunkId c = 0; c < slots; ++c) f.run_read(c);
    EXPECT_EQ(f.cache.misses(), misses_before) << "every chunk stays cached";
  }
}

// Two writes of absent chunks both pass the room check before either
// inserts. Room counts the reservations, so the second write evicts the
// coldest clean chunk itself: the set never exceeds its capacity, every
// chunk that leaves fires the release hook, and it misses on its next read.
TEST(PageCache, ConcurrentFillsReserveRoomBeforeInserting) {
  CacheFixture f;  // 8 chunks
  std::vector<ChunkId> released;
  std::size_t inserted = 0;
  std::size_t peak = 0;
  f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
  f.cache.set_touch_hook([&](ChunkId) {  // every write and fill here inserts
    ++inserted;
    peak = std::max(peak, f.cache.cached_chunks());
  });
  for (ChunkId c = 0; c < 7; ++c) f.run_read(c);  // 7 of 8 slots, clean
  for (const ChunkId c : {ChunkId{8}, ChunkId{9}}) {
    f.s.spawn([](PageCache* pc, ChunkId ch) -> sim::Task { co_await pc->write_chunk(ch); }(
        &f.cache, c));
  }
  f.s.run();
  EXPECT_LE(peak, 8u);
  EXPECT_EQ(released, (std::vector<ChunkId>{0}));
  EXPECT_EQ(inserted - released.size(), f.cache.cached_chunks());

  const auto misses_before = f.cache.misses();
  f.run_read(0);
  EXPECT_EQ(f.cache.misses(), misses_before + 1) << "chunk 0 left the cache";
  EXPECT_LE(peak, 8u);
  EXPECT_EQ(released.size(), 2u);  // its fill evicted the next coldest
  EXPECT_EQ(inserted - released.size(), f.cache.cached_chunks());
}

// A pending write pins its resident chunk: a fill that needs room while
// the write is on the guest bus evicts the next clean chunk instead.
TEST(PageCache, PendingWritePinsResidentChunk) {
  CacheFixture f;  // 8 chunks
  std::vector<ChunkId> released;
  f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
  for (ChunkId c = 0; c < 8; ++c) f.run_read(c);  // full; 0 is the coldest
  for (const ChunkId c : {ChunkId{0}, ChunkId{8}}) {
    f.s.spawn([](PageCache* pc, ChunkId ch) -> sim::Task { co_await pc->write_chunk(ch); }(
        &f.cache, c));
  }
  f.s.run();
  EXPECT_EQ(released, (std::vector<ChunkId>{1}));
  EXPECT_EQ(f.cache.cached_chunks(), 8u);
  const auto misses_before = f.cache.misses();
  f.run_read(0);
  EXPECT_EQ(f.cache.misses(), misses_before);
}

// Two writes of the same absent chunk need one slot between them.
TEST(PageCache, WritesOfOneAbsentChunkReserveOneSlot) {
  CacheFixture f;  // 8 chunks
  std::vector<ChunkId> released;
  f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
  for (ChunkId c = 0; c < 7; ++c) f.run_read(c);
  for (int i = 0; i < 2; ++i) {
    f.s.spawn([](PageCache* pc) -> sim::Task { co_await pc->write_chunk(8); }(&f.cache));
  }
  f.s.run();
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(f.cache.cached_chunks(), 8u);
}

TEST(PageCache, InvalidateDropsCleanCopy) {
  CacheFixture f;
  f.run_read(2);
  f.cache.invalidate(2);
  const auto misses_before = f.cache.misses();
  f.run_read(2);
  EXPECT_EQ(f.cache.misses(), misses_before + 1);
}

TEST(PageCache, WritebackOpsCounted) {
  CacheFixture f;
  f.run_write(0);
  f.run_write(1);
  EXPECT_EQ(f.cache.writeback_ops(), 2u);
}

// --- write-back ordering / fairness contract ------------------------------
// These pin the semantics the dirty tracker must preserve whatever its
// representation: ascending-id write-back for sequential dirtying,
// exactly-once write-back per dirty episode, exactly one rewrite after
// re-dirtying the in-flight chunk (and none after dirtying another), and
// no starvation of other dirty chunks by a hot one.

TEST(PageCacheWriteback, SequentialDirtyingWritesBackInAscendingOrder) {
  // Slow backend so all six writes are dirty before the first write-back
  // completes; both FIFO (= insertion order here) and the cursor must then
  // drain them in ascending chunk order.
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.5);
  f.s.spawn([](PageCache* pc) -> sim::Task {
    for (ChunkId c = 0; c < 4; ++c) co_await pc->write_chunk(c);
  }(&f.cache));
  f.s.run();
  EXPECT_EQ(f.backend.writes, (std::vector<ChunkId>{0, 1, 2, 3}));
}

TEST(PageCacheWriteback, EachDirtyEpisodeWritesBackExactlyOnce) {
  CacheFixture f;
  for (ChunkId c : {ChunkId{2}, ChunkId{5}, ChunkId{7}}) f.run_write(c);
  // run() drains between writes, so every chunk completes its write-back
  // before the next is dirtied: exactly one backend write per chunk.
  EXPECT_EQ(f.backend.writes, (std::vector<ChunkId>{2, 5, 7}));
}

TEST(PageCacheWriteback, RedirtyDuringWritebackCausesRewrite) {
  // Backend op takes 0.5 s, guest write 1 MiB / 100 MBps ~ 0.01 s: the
  // second write of chunk 0 lands while the first write-back is in flight.
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.5);
  std::size_t writes_at_redirty = ~std::size_t{0};
  f.s.spawn([](CacheFixture* fx, std::size_t* at) -> sim::Task {
    co_await fx->cache.write_chunk(0);  // write-back starts
    co_await fx->cache.write_chunk(0);  // re-dirty while in flight
    *at = fx->backend.writes.size();
    co_await fx->cache.fsync();
  }(&f, &writes_at_redirty));
  f.s.run();
  EXPECT_EQ(writes_at_redirty, 0u) << "the re-dirty must land mid-write-back";
  // The stale in-flight write-back must not clean the chunk: the re-dirtied
  // content is written exactly once more (2 backend writes), and fsync saw
  // it through.
  EXPECT_EQ(f.backend.writes, (std::vector<ChunkId>{0, 0}));
  EXPECT_EQ(f.cache.dirty_bytes(), 0u);
}

TEST(PageCacheWriteback, DirtyingAnotherChunkStillCleansInFlightOne) {
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.5);
  std::size_t writes_at_second = ~std::size_t{0};
  f.s.spawn([](CacheFixture* fx, std::size_t* at) -> sim::Task {
    co_await fx->cache.write_chunk(0);  // write-back of chunk 0 starts
    co_await fx->cache.write_chunk(1);  // dirty a different chunk mid-flight
    *at = fx->backend.writes.size();
    co_await fx->cache.fsync();
  }(&f, &writes_at_second));
  f.s.run();
  EXPECT_EQ(writes_at_second, 0u) << "chunk 1 must be dirtied mid-write-back";
  // One backend write per chunk: chunk 0 was cleaned by its first write-back.
  EXPECT_EQ(f.backend.writes, (std::vector<ChunkId>{0, 1}));
  EXPECT_EQ(f.cache.dirty_bytes(), 0u);
}

TEST(PageCacheWriteback, HotChunkDoesNotStarveOthers) {
  // Chunk 0 is re-dirtied every time the backend finishes writing anything;
  // chunks 1 and 2 must still reach the backend in bounded time.
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/0.2);
  f.s.spawn([](PageCache* pc) -> sim::Task {
    for (ChunkId c = 0; c < 3; ++c) co_await pc->write_chunk(c);
    for (int i = 0; i < 6; ++i) {
      co_await pc->write_chunk(0);  // keep chunk 0 hot
    }
    co_await pc->fsync();
  }(&f.cache));
  f.s.run_until(30.0);
  bool wrote1 = false, wrote2 = false;
  for (ChunkId c : f.backend.writes) {
    wrote1 |= (c == 1);
    wrote2 |= (c == 2);
  }
  EXPECT_TRUE(wrote1) << "chunk 1 starved by hot chunk 0";
  EXPECT_TRUE(wrote2) << "chunk 2 starved by hot chunk 0";
  EXPECT_EQ(f.cache.dirty_bytes(), 0u);  // fsync eventually drained all
}

TEST(PageCache, WriteSpeedMatchesConfiguredBandwidth) {
  CacheFixture f;
  const double t0 = f.s.now();
  bool done = false;
  f.s.spawn([](PageCache* pc, bool* d) -> sim::Task {
    co_await pc->write_chunk(0);
    *d = true;
  }(&f.cache, &done));
  f.s.run_while_pending([&] { return done; });
  EXPECT_NEAR(f.s.now() - t0, static_cast<double>(kMiB) / 100e6, 1e-6);
}

}  // namespace
}  // namespace hm::storage

namespace hm::storage {
namespace {

TEST(PageCacheRelease, ReleaseHookFiresOnInvalidate) {
  CacheFixture f;
  std::vector<ChunkId> released;
  f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
  f.run_read(3);
  f.cache.invalidate(3);
  EXPECT_EQ(released, (std::vector<ChunkId>{3}));
}

TEST(PageCacheRelease, ReleaseHookFiresOnEviction) {
  CacheFixture f;
  std::vector<ChunkId> released;
  f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
  for (ChunkId c = 0; c < 10; ++c) f.run_read(c);  // 8-chunk capacity
  EXPECT_GE(released.size(), 2u);
}

TEST(PageCacheRelease, DirtyChunkNotInvalidated) {
  CacheFixture f(CacheFixture::make_cfg(), /*backend_op_s=*/10.0);  // slow wb
  std::vector<ChunkId> released;
  f.cache.set_release_hook([&](ChunkId c) { released.push_back(c); });
  f.s.spawn([](PageCache* pc) -> sim::Task { co_await pc->write_chunk(0); }(&f.cache));
  f.s.run_until(0.5);  // write done, write-back still in flight
  f.cache.invalidate(0);
  EXPECT_TRUE(released.empty());  // dirty data must not be dropped
  f.s.run();
}

TEST(PageCacheRunGate, WritebackPausesWithGate) {
  sim::Simulator s;
  FakeBackend backend(s, 0.01);
  ImageConfig img{16 * kMiB, static_cast<std::uint32_t>(kMiB)};
  PageCache cache(s, backend, img, CacheFixture::make_cfg());
  sim::Gate gate(s, /*open=*/false);  // paused from the start
  cache.set_run_gate(&gate);
  s.spawn([](PageCache* pc) -> sim::Task { co_await pc->write_chunk(0); }(&cache));
  s.run_until(1.0);
  EXPECT_TRUE(backend.writes.empty());  // frozen guest: no write-back
  gate.open();
  s.run();
  EXPECT_EQ(backend.writes.size(), 1u);
}

}  // namespace
}  // namespace hm::storage
