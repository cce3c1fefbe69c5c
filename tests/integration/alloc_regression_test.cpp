// Steady-state allocation regression suite.
//
// This binary replaces the global operator new/delete with counting
// forwarders, then drives a hybrid storage migration to a mid-phase steady
// state and asserts that a window of per-chunk data-path work (push phase
// and pull phase separately) performs ZERO heap allocations: coroutine
// frames come from the thread-local FramePool, transfers and disk/bus legs
// are frameless awaitables, sync-primitive waiters are intrusive, and the
// flow/pull slabs recycle their slots.
//
// The same counters also sum the bytes requested, which pins the per-chunk
// heap footprint of the per-VM storage objects (FootprintGate below), and
// track the live heap (malloc_usable_size on new and delete), which pins
// what a finished migration session still holds.
//
// Kept in its own test binary so the replaced allocator does not interact
// with any other suite.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/hybrid_migrator.h"
#include "core/session_fixture.h"
#include "sim/sync.h"
#include "storage/chunk_store.h"
#include "storage/page_cache.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};
// Live heap through operator new, in usable (not requested) bytes so that
// new and delete account the same size.
std::atomic<std::int64_t> g_live_bytes{0};

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }

namespace hm::core {
namespace {

using testing::SessionFixture;

vm::ClusterConfig alloc_cluster_cfg() {
  vm::ClusterConfig cfg = testing::small_cluster_cfg();
  // 256 chunks so the steady-state window spans plenty of per-chunk ops.
  cfg.image = storage::ImageConfig{256 * storage::kMiB,
                                   static_cast<std::uint32_t>(storage::kMiB)};
  return cfg;
}

struct AllocFixture : SessionFixture {
  AllocFixture() : SessionFixture(alloc_cluster_cfg()) {}

  std::unique_ptr<HybridSession> make_session(HybridConfig cfg = {}) {
    return std::make_unique<HybridSession>(s, cluster, &mgr, /*dst_node=*/1, *rec, cfg);
  }
};

// Run the simulator until `pred` holds, stepping the raw event loop so the
// measurement window itself introduces no helper allocations.
template <class Pred>
void step_until(sim::Simulator& s, Pred&& pred) {
  while (!pred() && s.step()) {
  }
}

TEST(AllocRegression, CountingAllocatorIsLinkedIn) {
  // Sanity: the replaced operator new must actually be the one in use,
  // otherwise the zero-deltas below would be vacuous.
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  auto* p = new std::uint64_t(42);
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  delete p;
  EXPECT_GT(after, before);
}

TEST(AllocRegression, PushPhaseSteadyStateIsAllocationFree) {
  AllocFixture f;
  f.populate(220);
  auto session = f.make_session();
  session->start();
  // Warm-up: let slabs, pools, heaps and vectors reach steady capacity.
  step_until(f.s, [&] { return session->chunks_pushed() >= 40; });
  ASSERT_GE(session->chunks_pushed(), 40u);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  step_until(f.s, [&] { return session->chunks_pushed() >= 160; });
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  ASSERT_GE(session->chunks_pushed(), 160u);
  EXPECT_EQ(after - before, 0u)
      << "the push-phase chunk path (read_chunk -> transfer -> write_chunk, "
         "plus background flushers) must not touch the heap in steady state";
}

TEST(AllocRegression, PullPhaseSteadyStateIsAllocationFree) {
  AllocFixture f;
  f.populate(220);
  HybridConfig cfg;
  cfg.push_enabled = false;  // pure post-copy: everything moves via pulls
  auto session = f.make_session(cfg);
  session->start();
  f.sync_and_transfer(*session);
  // Warm-up covers the first pulls (pool/slab growth, pull-log reserve).
  step_until(f.s, [&] { return session->chunks_pulled() >= 40; });
  ASSERT_GE(session->chunks_pulled(), 40u);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  step_until(f.s, [&] { return session->chunks_pulled() >= 160; });
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  ASSERT_GE(session->chunks_pulled(), 160u);
  EXPECT_EQ(after - before, 0u)
      << "the pull-phase chunk path (request/response round trip, source "
         "read, destination write, pull-slab recycling) must not touch the "
         "heap in steady state";
}

// Footprint gate: heap bytes requested per image chunk while constructing
// each per-VM storage object over a 4096-chunk image (1 GiB of 256 KiB
// chunks, the fleet benchmarks' geometry). Every VM holds one PageCache and
// one source ChunkStore, and a migrating VM adds a HybridSession, whose
// construction includes its destination ChunkStore. Sizes are a function
// of the code alone, so host drift cannot move them; the slack absorbs
// standard-library differences in the fixed-size parts (deque maps,
// node buffers), about 2 KiB per object.
//
// Pinned values, bytes per chunk (the per-chunk arrays, then the object
// itself and its fixed-size parts spread over 4096 chunks). An LRU set
// keeps its 8 B link slot per chunk only when it can evict (capacity <=
// image chunks), so the default caches, larger than the image, carry none:
//   ChunkStore            0.60  4 bitmaps (present, modified, host-dirty,
//                               LRU membership) at 1/8 B each; the 6 GiB
//                               host cache never evicts
//   PageCache             0.36  2 bitmaps (LRU membership, the drain's
//                               dirty set); the 3 GiB default cache never
//                               evicts
//   PageCache, fleet      8.36  as above + 8 B LRU link slot: the 768 MiB
//                               cache holds 3072 of the 4096 chunks
//   HybridSession         6.75  4 B write count + 1 B transfer count + 4
//                               bitmaps, its destination ChunkStore (0.60),
//                               three deques (the pull-order RNG is built
//                               for the random order only)
namespace {

constexpr std::uint32_t kFootprintChunks = 4096;
constexpr double kFootprintSlack = 0.5;  // bytes per chunk

storage::ImageConfig footprint_image() {
  return storage::ImageConfig{1 * storage::kGiB, 256 * 1024};
}

template <class Build>
double heap_bytes_per_chunk(Build&& build) {
  const std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  auto obj = build();
  const std::uint64_t after = g_heap_bytes.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / kFootprintChunks;
}

class NullBackend final : public storage::BlockBackend {
 public:
  sim::Task backend_read_chunk(storage::ChunkId) override { co_return; }
  sim::Task backend_write_chunk(storage::ChunkId) override { co_return; }
};

}  // namespace

TEST(FootprintGate, ChunkStoreBytesPerChunk) {
  ASSERT_EQ(footprint_image().num_chunks(), kFootprintChunks);
  sim::Simulator s;
  storage::Disk disk(s, storage::DiskConfig{});
  const double per_chunk = heap_bytes_per_chunk(
      [&] { return std::make_unique<storage::ChunkStore>(s, disk, footprint_image()); });
  EXPECT_NEAR(per_chunk, 0.60, kFootprintSlack);
}

TEST(FootprintGate, PageCacheBytesPerChunk) {
  sim::Simulator s;
  NullBackend backend;
  const double per_chunk = heap_bytes_per_chunk(
      [&] { return std::make_unique<storage::PageCache>(s, backend, footprint_image()); });
  EXPECT_NEAR(per_chunk, 0.36, kFootprintSlack);
}

// The fleet workloads' guest cache (768 MiB over the 1 GiB image) can
// evict, so it keeps the LRU link slots: this pin gates the linked path.
TEST(FootprintGate, FleetPageCacheBytesPerChunk) {
  sim::Simulator s;
  NullBackend backend;
  storage::PageCacheConfig cfg;
  cfg.capacity_bytes = 768 * storage::kMiB;
  const double per_chunk = heap_bytes_per_chunk([&] {
    return std::make_unique<storage::PageCache>(s, backend, footprint_image(), cfg);
  });
  EXPECT_NEAR(per_chunk, 8.36, kFootprintSlack);
}

TEST(FootprintGate, HybridSessionBytesPerChunk) {
  vm::ClusterConfig ccfg = testing::small_cluster_cfg();
  ccfg.image = footprint_image();
  SessionFixture f(ccfg);
  const double per_chunk = heap_bytes_per_chunk([&] {
    return std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr, /*dst_node=*/1, *f.rec);
  });
  EXPECT_NEAR(per_chunk, 6.75, kFootprintSlack);
}

// What a session still holds once its attempt is over: the middleware
// keeps every session object until teardown, so its per-chunk transfer
// state must go at release. Measured as the live heap that destroying the
// released session frees, per chunk of the 4096-chunk image. A finished
// session still owns the retained source replica (0.60, ChunkStore above)
// and its own object; an aborted one has handed its destination replica to
// the salvage and owns no store. Held until teardown, the transfer state
// alone is ~6 B per chunk.
namespace {

constexpr double kReleasedSessionMaxBytesPerChunk = 1.0;

struct FootprintSessionFixture : SessionFixture {
  FootprintSessionFixture() : SessionFixture(footprint_ccfg()) {}
  static vm::ClusterConfig footprint_ccfg() {
    vm::ClusterConfig ccfg = testing::small_cluster_cfg();
    ccfg.image = footprint_image();
    return ccfg;
  }
};

double live_bytes_freed_per_chunk(std::unique_ptr<HybridSession>& session) {
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  session.reset();
  const std::int64_t after = g_live_bytes.load(std::memory_order_relaxed);
  return static_cast<double>(before - after) / kFootprintChunks;
}

}  // namespace

TEST(FootprintGate, FinishedHybridSessionBytesPerChunk) {
  FootprintSessionFixture f;
  f.populate(64);
  auto session =
      std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr, /*dst_node=*/1, *f.rec);
  f.mgr.begin_migration(session.get());
  session->start();
  // Drive chunk 5 hot so the passive phase pulls it.
  for (int i = 0; i < 4; ++i) f.write_chunk_now(5);
  f.sync_and_transfer(*session);
  f.wait_release(*session);
  f.mgr.end_migration();
  ASSERT_GT(session->chunks_pushed(), 0u);
  ASSERT_GT(session->chunks_pulled(), 0u);

  session->release_transfer_state();
  ASSERT_TRUE(session->transfer_state_released());
  const double held = live_bytes_freed_per_chunk(session);
  EXPECT_LE(held, kReleasedSessionMaxBytesPerChunk);
  EXPECT_GT(held, 0.5);  // the retained source replica is still there
}

TEST(FootprintGate, AbortedHybridSessionBytesPerChunk) {
  FootprintSessionFixture f;
  f.populate(64);
  auto session =
      std::make_unique<HybridSession>(f.s, f.cluster, &f.mgr, /*dst_node=*/1, *f.rec);
  f.mgr.begin_migration(session.get());
  session->start();
  step_until(f.s, [&] { return session->chunks_pushed() >= 16; });
  session->abort();
  f.s.run();  // the push observes the abort and exits
  f.mgr.end_migration();
  std::optional<MigrationManager::ResumeState> salvaged = session->take_partial_destination();
  ASSERT_TRUE(salvaged.has_value());
  EXPECT_GE(salvaged->valid.count(), 16u);

  session->release_transfer_state();
  ASSERT_TRUE(session->transfer_state_released());
  EXPECT_LE(live_bytes_freed_per_chunk(session), kReleasedSessionMaxBytesPerChunk);
}

// Wakeup-heavy steady state: every event in this scenario is a zero-delay
// continuation (notification wakeups, FIFO station handoffs, yields) plus
// the station's zero-length service timers and the driver's timers — i.e.
// the simulator's fast lane, timer slots and SmallFn slots, nothing else.
// Pins the PR 4 dispatch machinery at zero heap allocations.
namespace {

/// One zero-length service at a FifoStation: queued behind the other
/// waiters, it wakes through the station's fast-lane handoff.
struct StationHold {
  sim::FifoStation& st;
  sim::FifoStation::Node node;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    node.cont = h;
    st.submit(&node);
  }
  void await_resume() const noexcept {}
};

sim::Task churn_waiter(sim::Simulator* s, sim::Notification* note, sim::FifoStation* station,
                       std::uint64_t* wakeups) {
  for (;;) {
    co_await note->wait();
    co_await StationHold{*station, {0.0, nullptr, nullptr}};
    co_await s->yield();  // fast-lane hop
    ++*wakeups;
  }
}

sim::Task churn_driver(sim::Simulator* s, sim::Notification* note) {
  for (;;) {
    co_await s->delay(1e-6);
    note->notify_all();
  }
}

}  // namespace

TEST(AllocRegression, WakeupAndYieldChurnIsAllocationFree) {
  sim::Simulator s;
  sim::Notification note(s);
  sim::FifoStation station(s);
  std::uint64_t wakeups = 0;
  for (int i = 0; i < 16; ++i) s.spawn(churn_waiter(&s, &note, &station, &wakeups));
  s.spawn(churn_driver(&s, &note));
  // Warm-up: frame pool, fast-lane ring and event slab reach capacity.
  step_until(s, [&] { return wakeups >= 512; });
  ASSERT_GE(wakeups, 512u);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  step_until(s, [&] { return wakeups >= 4096; });
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);

  ASSERT_GE(wakeups, 4096u);
  EXPECT_EQ(after - before, 0u)
      << "notification wakeups, FIFO station handoffs and yields must ride "
         "the fast lane without touching the heap";
}

}  // namespace
}  // namespace hm::core
