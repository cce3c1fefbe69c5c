#include "storage/chunk_store.h"

#include <gtest/gtest.h>

#include "sim/random.h"
#include "sim/simulator.h"

namespace hm::storage {
namespace {

struct StoreFixture {
  sim::Simulator s;
  Disk disk;
  ChunkStore store;
  StoreFixture(ImageConfig img = {64 * kMiB, 1 * static_cast<std::uint32_t>(kMiB)},
               ChunkStoreConfig cfg = {}, DiskConfig disk_cfg = {100e6, 0.0})
      : disk(s, disk_cfg), store(s, disk, img, cfg) {}

  void run_write(ChunkId c) {
    s.spawn([](ChunkStore* st, ChunkId ch) -> sim::Task { co_await st->write_chunk(ch); }(
        &store, c));
    s.run();
  }
  void run_read(ChunkId c) {
    s.spawn([](ChunkStore* st, ChunkId ch) -> sim::Task { co_await st->read_chunk(ch); }(
        &store, c));
    s.run();
  }
};

TEST(ImageConfig, GeometryHelpers) {
  ImageConfig img{4 * kGiB, 256 * static_cast<std::uint32_t>(kKiB)};
  EXPECT_EQ(img.num_chunks(), 16384u);
  EXPECT_EQ(img.chunk_of(0), 0u);
  EXPECT_EQ(img.chunk_of(256 * kKiB - 1), 0u);
  EXPECT_EQ(img.chunk_of(256 * kKiB), 1u);
  EXPECT_EQ(img.chunk_of(4 * kGiB - 1), 16383u);
}

TEST(ImageConfig, RoundsUpPartialChunk) {
  ImageConfig img{kMiB + 1, static_cast<std::uint32_t>(kMiB)};
  EXPECT_EQ(img.num_chunks(), 2u);
}

TEST(LruChunkSet, InsertContainsErase) {
  LruChunkSet lru(3);
  EXPECT_FALSE(lru.contains(1));
  lru.insert(1);
  lru.insert(2);
  EXPECT_TRUE(lru.contains(1));
  lru.erase(1);
  EXPECT_FALSE(lru.contains(1));
  EXPECT_EQ(lru.size(), 1u);
}

TEST(LruChunkSet, EvictsLeastRecentlyUsed) {
  LruChunkSet lru(2);
  lru.insert(1);
  lru.insert(2);
  lru.insert(1);               // refresh 1: now 2 is the LRU entry
  EXPECT_TRUE(lru.insert(3));  // evicts 2
  EXPECT_TRUE(lru.contains(1));
  EXPECT_FALSE(lru.contains(2));
  EXPECT_TRUE(lru.contains(3));
}

TEST(LruChunkSet, ZeroCapacityNeverEvicts) {
  LruChunkSet lru(0);  // "unbounded" sentinel
  for (ChunkId c = 0; c < 100; ++c) EXPECT_FALSE(lru.insert(c));
  EXPECT_EQ(lru.size(), 100u);
}

TEST(LruChunkSet, ColdEndIterationWalksLruOrder) {
  LruChunkSet lru(10);
  EXPECT_EQ(lru.least_recent(), LruChunkSet::kNil);
  lru.insert(4);
  lru.insert(7);
  lru.insert(2);
  lru.insert(4);  // refresh: 4 becomes MRU, 7 the LRU
  std::vector<std::uint32_t> cold_to_hot;
  for (std::uint32_t c = lru.least_recent(); c != LruChunkSet::kNil;
       c = lru.more_recent(static_cast<ChunkId>(c)))
    cold_to_hot.push_back(c);
  EXPECT_EQ(cold_to_hot, (std::vector<std::uint32_t>{7, 2, 4}));
  lru.erase(2);  // unlink from the middle
  EXPECT_EQ(lru.least_recent(), 7u);
  EXPECT_EQ(lru.more_recent(7), 4u);
}

// Membership lives in a bitmap next to the link slab. With universe 0 both
// grow to the largest id inserted; ids past the grown range read as absent.
TEST(LruChunkSet, GrowsPastUniverseZero) {
  LruChunkSet lru(0);
  EXPECT_FALSE(lru.contains(1000));  // beyond anything grown: absent, no UB
  lru.insert(5);
  lru.insert(700);  // grows slots and bitmap past the first word
  lru.insert(64);
  EXPECT_TRUE(lru.contains(5));
  EXPECT_TRUE(lru.contains(64));
  EXPECT_TRUE(lru.contains(700));
  EXPECT_FALSE(lru.contains(6));
  EXPECT_FALSE(lru.contains(699));
  EXPECT_FALSE(lru.contains(701));
  EXPECT_EQ(lru.size(), 3u);
}

TEST(LruChunkSet, EraseOfAbsentIdIsNoOp) {
  LruChunkSet lru(0, /*universe=*/64);
  lru.insert(3);
  lru.insert(9);
  lru.erase(4);     // inside the universe, never inserted
  lru.erase(9000);  // past every slot
  lru.erase(3);
  lru.erase(3);  // second erase of the same id
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_FALSE(lru.contains(3));
  EXPECT_TRUE(lru.contains(9));
  EXPECT_EQ(lru.least_recent(), 9u);
  EXPECT_EQ(lru.more_recent(9), LruChunkSet::kNil);
}

TEST(LruChunkSet, EvictionOrderSurvivesGrowth) {
  LruChunkSet lru(3);
  lru.insert(1);
  lru.insert(2);
  lru.insert(500);              // grows the slab: links 1 and 2 must survive
  lru.insert(1);                // refresh: 2 is now the LRU entry
  EXPECT_TRUE(lru.insert(900));  // grows again and evicts 2
  EXPECT_FALSE(lru.contains(2));
  std::vector<std::uint32_t> cold_to_hot;
  for (std::uint32_t c = lru.least_recent(); c != LruChunkSet::kNil;
       c = lru.more_recent(static_cast<ChunkId>(c)))
    cold_to_hot.push_back(c);
  EXPECT_EQ(cold_to_hot, (std::vector<std::uint32_t>{500, 1, 900}));
  EXPECT_TRUE(lru.insert(2));  // re-insert below the grown range: evicts 500
  EXPECT_FALSE(lru.contains(500));
  EXPECT_EQ(lru.size(), 3u);
}

// A set whose universe is smaller than its capacity can never evict, so it
// keeps no recency links. It must answer exactly like a linked set of the
// same capacity fed the same operations.
TEST(LruChunkSet, LinkFreeSetMatchesLinkedSet) {
  constexpr std::size_t kUniverse = 200;
  constexpr std::size_t kCapacity = 256;
  LruChunkSet bare(kCapacity, kUniverse);
  LruChunkSet linked(kCapacity);  // universe 0: always linked
  ASSERT_FALSE(bare.linked());
  ASSERT_TRUE(linked.linked());
  sim::Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    const auto c = static_cast<ChunkId>(rng.uniform(kUniverse));
    if (rng.uniform(3) == 0) {
      bare.erase(c);
      linked.erase(c);
    } else {
      ASSERT_EQ(bare.insert(c), linked.insert(c)) << "op " << op;
    }
    ASSERT_EQ(bare.size(), linked.size()) << "op " << op;
    const auto probe = static_cast<ChunkId>(rng.uniform(kUniverse));
    ASSERT_EQ(bare.contains(probe), linked.contains(probe)) << "op " << op;
  }
  for (ChunkId c = 0; c < kUniverse; ++c) EXPECT_EQ(bare.contains(c), linked.contains(c));
}

// A set with capacity == universe holds every id at once, so it never
// evicts and keeps no links; one slot less and it can evict.
TEST(LruChunkSet, CapacityEqualToUniverseKeepsNoLinks) {
  EXPECT_FALSE(LruChunkSet(16, 16).linked());
  EXPECT_FALSE(LruChunkSet(17, 16).linked());
  EXPECT_TRUE(LruChunkSet(15, 16).linked());
  EXPECT_TRUE(LruChunkSet(0, 16).linked());
  EXPECT_TRUE(LruChunkSet(4, 0).linked());
  LruChunkSet full(16, 16);
  for (ChunkId c = 0; c < 16; ++c) EXPECT_FALSE(full.insert(c));
  EXPECT_EQ(full.size(), 16u);
}

TEST(ChunkStore, StartsEmpty) {
  StoreFixture f;
  EXPECT_EQ(f.store.present_count(), 0u);
  EXPECT_EQ(f.store.modified_count(), 0u);
  EXPECT_FALSE(f.store.present(0));
}

TEST(ChunkStore, WriteMarksPresentAndModified) {
  StoreFixture f;
  f.run_write(5);
  EXPECT_TRUE(f.store.present(5));
  EXPECT_TRUE(f.store.modified(5));
  EXPECT_EQ(f.store.present_count(), 1u);
  EXPECT_EQ(f.store.modified_count(), 1u);
}

TEST(ChunkStore, RepeatedWritesCountOnce) {
  StoreFixture f;
  f.run_write(5);
  f.run_write(5);
  f.run_write(5);
  EXPECT_EQ(f.store.modified_count(), 1u);
}

TEST(ChunkStore, InstallBaseChunkIsPresentNotModified) {
  StoreFixture f;
  f.s.spawn([](ChunkStore* st) -> sim::Task { co_await st->install_base_chunk(7); }(
      &f.store));
  f.s.run();
  EXPECT_TRUE(f.store.present(7));
  EXPECT_FALSE(f.store.modified(7));
  EXPECT_EQ(f.store.modified_count(), 0u);
}

TEST(ChunkStore, ModifiedSetListsExactlyModifiedChunks) {
  StoreFixture f;
  f.run_write(3);
  f.run_write(9);
  f.run_write(1);
  auto set = f.store.modified_set();
  EXPECT_EQ(set, (std::vector<ChunkId>{1, 3, 9}));  // ascending order
}

TEST(ChunkStore, WriteGoesToHostCacheNotStraightToDisk) {
  StoreFixture f;
  const double t0 = f.s.now();
  f.s.spawn([](ChunkStore* st) -> sim::Task { co_await st->write_chunk(0); }(&f.store));
  // Metadata commits in the request path: present before any virtual time
  // passes, cache residency only once the bus service completes.
  f.s.run_while_pending([&] { return f.store.present(0); });
  EXPECT_NEAR(f.s.now() - t0, 0.0, 1e-9);
  EXPECT_FALSE(f.store.host_cached(0));
  // Drive only until the write completes (flusher still pending).
  f.s.run_while_pending([&] { return f.store.host_cached(0); });
  const double bus_time = static_cast<double>(kMiB) / ChunkStoreConfig{}.host_bus_Bps;
  EXPECT_NEAR(f.s.now() - t0, bus_time, 1e-6);
  EXPECT_TRUE(f.store.host_cached(0));
}

TEST(ChunkStore, BackgroundFlushReachesDisk) {
  StoreFixture f;
  f.run_write(0);
  f.run_write(1);
  EXPECT_DOUBLE_EQ(f.disk.bytes_written(), 2.0 * kMiB);
  EXPECT_EQ(f.store.host_dirty_chunks(), 0u);
}

TEST(ChunkStore, CachedReadSkipsDisk) {
  StoreFixture f;
  f.run_write(4);
  const double disk_reads_before = f.disk.bytes_read();
  f.run_read(4);
  EXPECT_DOUBLE_EQ(f.disk.bytes_read(), disk_reads_before);
  EXPECT_EQ(f.store.cache_hits(), 1u);
}

TEST(ChunkStore, UncachedReadHitsDisk) {
  // Tiny host cache: writing chunk 1 evicts chunk 0.
  ChunkStoreConfig cfg;
  cfg.host_cache_bytes = kMiB;  // one chunk
  StoreFixture f({64 * kMiB, static_cast<std::uint32_t>(kMiB)}, cfg);
  f.run_write(0);
  f.run_write(1);
  EXPECT_FALSE(f.store.host_cached(0));
  f.run_read(0);
  EXPECT_EQ(f.store.cache_misses(), 1u);
  EXPECT_DOUBLE_EQ(f.disk.bytes_read(), 1.0 * kMiB);
}

TEST(ChunkStore, FlushWaitsForAllDirty) {
  StoreFixture f({64 * kMiB, static_cast<std::uint32_t>(kMiB)});
  bool flushed = false;
  f.s.spawn([](ChunkStore* st, bool* fl) -> sim::Task {
    co_await st->write_chunk(0);
    co_await st->write_chunk(1);
    co_await st->write_chunk(2);
    co_await st->flush();
    *fl = true;
  }(&f.store, &flushed));
  f.s.run();
  EXPECT_TRUE(flushed);
  EXPECT_DOUBLE_EQ(f.disk.bytes_written(), 3.0 * kMiB);
}

TEST(ChunkStore, RedirtyDuringFlushWritesAgain) {
  StoreFixture f;
  f.s.spawn([](ChunkStore* st) -> sim::Task {
    co_await st->write_chunk(0);  // flusher starts writing chunk 0
    co_await st->write_chunk(0);  // re-dirty while (or right after) flushing
    co_await st->flush();
  }(&f.store));
  f.s.run();
  // The chunk must have reached the disk at least once and end clean.
  EXPECT_GE(f.disk.bytes_written(), 1.0 * kMiB);
  EXPECT_EQ(f.store.host_dirty_chunks(), 0u);
}

// The flusher keeps one disk write in flight and tracks only that chunk:
// a re-dirty of it must cost exactly one more disk write, and dirtying any
// other chunk must not stop the in-flight one from being cleaned. A 10 MB/s
// disk makes each 1 MiB flush ~10x longer than the 100 MB/s host-bus write,
// so the second write below lands while the first flush is on the disk.
TEST(ChunkStoreFlusher, RedirtyOfInFlightChunkWritesExactlyOnceMore) {
  StoreFixture f({64 * kMiB, static_cast<std::uint32_t>(kMiB)}, {}, DiskConfig{10e6, 0.0});
  std::uint64_t flushes_at_redirty = ~std::uint64_t{0};
  f.s.spawn([](StoreFixture* fx, std::uint64_t* at) -> sim::Task {
    co_await fx->store.write_chunk(0);  // the flusher starts writing chunk 0
    co_await fx->store.write_chunk(0);  // re-dirty while that write is in flight
    *at = fx->disk.requests_served();
    co_await fx->store.flush();
  }(&f, &flushes_at_redirty));
  f.s.run();
  EXPECT_EQ(flushes_at_redirty, 0u) << "the re-dirty must land mid-flush";
  EXPECT_DOUBLE_EQ(f.disk.bytes_written(), 2.0 * kMiB);
  EXPECT_EQ(f.disk.requests_served(), 2u);
  EXPECT_EQ(f.store.host_dirty_chunks(), 0u);
}

TEST(ChunkStoreFlusher, DirtyingAnotherChunkStillCleansInFlightOne) {
  StoreFixture f({64 * kMiB, static_cast<std::uint32_t>(kMiB)}, {}, DiskConfig{10e6, 0.0});
  std::uint64_t flushes_at_second = ~std::uint64_t{0};
  f.s.spawn([](StoreFixture* fx, std::uint64_t* at) -> sim::Task {
    co_await fx->store.write_chunk(0);  // the flusher starts writing chunk 0
    co_await fx->store.write_chunk(1);  // dirty a different chunk mid-flush
    *at = fx->disk.requests_served();
    co_await fx->store.flush();
  }(&f, &flushes_at_second));
  f.s.run();
  EXPECT_EQ(flushes_at_second, 0u) << "chunk 1 must be dirtied mid-flush";
  // One disk write per chunk: chunk 0 was cleaned by its first flush.
  EXPECT_DOUBLE_EQ(f.disk.bytes_written(), 2.0 * kMiB);
  EXPECT_EQ(f.store.host_dirty_chunks(), 0u);
}

}  // namespace
}  // namespace hm::storage

// for_each_modified is the ModifiedSet iteration hook trace-driven
// consumers lean on (workloads/trace.h snapshots, migration round seeding):
// pin word boundaries, empty/full bitmaps and agreement with
// modified_set(), including across a write issued between iterations.
namespace hm::storage {
namespace {

std::vector<ChunkId> modified_chunks(const ChunkStore& st) {
  std::vector<ChunkId> out;
  st.for_each_modified([&](ChunkId c) { out.push_back(c); });
  return out;
}

TEST(ChunkStoreForEachModified, EmptyStoreVisitsNothing) {
  StoreFixture f;
  EXPECT_TRUE(modified_chunks(f.store).empty());
}

TEST(ChunkStoreForEachModified, WordBoundaryChunks63To65) {
  StoreFixture f{ImageConfig{128 * kMiB, 1 * static_cast<std::uint32_t>(kMiB)}};
  f.run_write(63);
  f.run_write(64);
  f.run_write(65);
  EXPECT_EQ(modified_chunks(f.store), (std::vector<ChunkId>{63, 64, 65}));
}

TEST(ChunkStoreForEachModified, FullBitmapVisitsEveryChunkAscending) {
  StoreFixture f;  // 64 chunks of 1 MiB
  f.s.spawn([](ChunkStore* st) -> sim::Task {
    for (ChunkId c = 0; c < st->num_chunks(); ++c) co_await st->write_chunk(c);
  }(&f.store));
  f.s.run();
  const std::vector<ChunkId> chunks = modified_chunks(f.store);
  ASSERT_EQ(chunks.size(), f.store.num_chunks());
  for (ChunkId c = 0; c < f.store.num_chunks(); ++c) EXPECT_EQ(chunks[c], c);
}

TEST(ChunkStoreForEachModified, BaseInstallsAreNotModified) {
  StoreFixture f;
  f.s.spawn([](ChunkStore* st) -> sim::Task {
    co_await st->install_base_chunk(3);
    co_await st->write_chunk(7);
  }(&f.store));
  f.s.run();
  EXPECT_EQ(modified_chunks(f.store), (std::vector<ChunkId>{7}));
}

TEST(ChunkStoreForEachModified, MatchesModifiedSetAndSurvivesRescan) {
  StoreFixture f;
  f.run_write(1);
  f.run_write(63);
  const std::vector<ChunkId> first = modified_chunks(f.store);
  EXPECT_EQ(first, f.store.modified_set());
  f.run_write(32);  // modify between iterations
  const std::vector<ChunkId> second = modified_chunks(f.store);
  EXPECT_EQ(second, (std::vector<ChunkId>{1, 32, 63}));
  EXPECT_EQ(second, f.store.modified_set());
}

}  // namespace
}  // namespace hm::storage
