// Guest page cache model.
//
// Sits between the workload's file I/O and the virtual disk (the migration
// manager). This layer is what makes the paper's observed IOR ceilings
// possible on a 55 MB/s disk: writes land in guest RAM at memcpy speed
// (observed 266 MB/s), reads of resident data run at ~1 GB/s, and a
// background write-back task drains dirty chunks to the virtual disk. When
// the dirty set exceeds the guest's dirty limit, writers are throttled to
// write-back speed — which is how slow storage backends (mirrored writes,
// PVFS) degrade in-VM write throughput.
//
// Crucially, cache-resident file data lives in *guest memory*, so filling or
// dirtying the cache dirties guest pages that the hypervisor's memory
// pre-copy has to (re)transmit. The on_cache_touch hook wires that coupling.
//
// Each fact has one record: a chunk is resident iff it is in the LRU set,
// and dirty iff its bit is set in the WriteBackDrain (chunk_store.h), the
// same drain the host cache uses. Here the drain holds while the VM's run
// gate is closed and writes each chunk through the backend. Only a clean
// resident chunk with no write pending can leave, and leaving always fires
// the release hook.
//
// Capacity is enforced when room is made, not when a chunk is inserted: a
// fill of an absent chunk first evicts clean chunks until the resident set
// plus the fills still in flight (reserved_) is below capacity, so the LRU
// set never evicts on insert (a Debug assert). A write to a resident chunk,
// or to one another pending write will insert, needs no room, and a
// resident chunk stays resident while a write to it is pending.
//
// write_chunk()/read_chunk() are FRAMELESS awaitables, because the guest
// I/O steady state is chunk-at-a-time: the write awaiter embeds one WaitNode
// that parks a state-machine step on the drain's progress (throttle, room),
// and both awaiters embed a FifoStation node for the guest bus (the memory
// copy); the state updates after the copy run in await_resume — no
// coroutine frame per chunk op.
// The read MISS path (backend fetch) still runs as one pooled coroutine,
// started by symmetric transfer from the awaiter: misses leave the steady
// state by definition, and the backend interface is Task-shaped.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/chunk_store.h"

namespace hm::storage {

/// Chunk-granular virtual disk interface implemented by the migration
/// manager (local images) and by the PVFS backend (pvfs-shared baseline).
class BlockBackend {
 public:
  virtual ~BlockBackend() = default;
  virtual sim::Task backend_read_chunk(ChunkId c) = 0;
  virtual sim::Task backend_write_chunk(ChunkId c) = 0;
  /// fsync-style barrier; default waits for nothing extra.
  virtual sim::Task backend_sync() { co_return; }
};

struct PageCacheConfig {
  std::uint64_t capacity_bytes = 3 * kGiB;     // guest RAM available for page cache
  std::uint64_t dirty_limit_bytes = 800 * kMiB;  // throttle threshold (~20% of 4 GB)
  double write_Bps = 266.0e6;  // guest-side buffered write bandwidth
  double read_Bps = 1.0e9;     // guest-side cached read bandwidth
};

class PageCache {
 public:
  PageCache(sim::Simulator& sim, BlockBackend& backend, ImageConfig img,
            PageCacheConfig cfg = {});
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Hook invoked whenever file data enters or changes in the cache; the VM
  /// uses it to dirty the corresponding guest memory pages.
  void set_touch_hook(std::function<void(ChunkId)> hook) { touch_hook_ = std::move(hook); }

  /// Gate the write-back task on the VM's run state: the guest kernel (and
  /// thus its write-back) is frozen while the hypervisor pauses the VM.
  void set_run_gate(sim::Gate* gate) noexcept { drain_.set_gate(gate); }

  /// Hook invoked when a chunk leaves the cache (eviction / invalidate);
  /// the VM uses it to release the backing guest memory pages.
  void set_release_hook(std::function<void(ChunkId)> hook) {
    release_hook_ = std::move(hook);
  }

  /// Frameless buffered write of one full chunk. A hand-rolled state
  /// machine over three wait points — dirty throttle, room for an absent
  /// chunk, guest-bus copy — with the post-copy state updates (LRU insert,
  /// dirty marking, touch hook) in await_resume.
  /// Non-copyable in effect: the embedded nodes' addresses are registered
  /// with the waiter lists, so the object must be awaited where it was
  /// materialized (`co_await cache.write_chunk(c)`).
  struct [[nodiscard]] WriteAwaiter {
    PageCache& pc;
    ChunkId c;
    std::coroutine_handle<> cont = nullptr;
    sim::WaitNode node;          // throttle and room waits
    sim::FifoStation::Node bus;  // the copy
    WriteAwaiter* next = nullptr;  // PageCache::writing_ link
    bool throttle_passed = false;
    bool reserved = false;  // holds one of reserved_'s slots

    bool await_ready() const noexcept { return false; }  // the copy always suspends
    void await_suspend(std::coroutine_handle<> h) {
      cont = h;
      node.fn = &step_thunk;
      node.a = this;
      step();
    }
    void await_resume() const {
      [[maybe_unused]] const WriteAwaiter* head = pc.writing_.pop();
      assert(head == this);  // the bus completes writes in reservation order
      if (reserved) --pc.reserved_;
      pc.insert(c);
      pc.drain_.mark(c);
      if (pc.touch_hook_) pc.touch_hook_(c);
    }

   private:
    static void step_thunk(void* self, void*) {
      static_cast<WriteAwaiter*>(self)->step();
    }
    void step();
  };

  /// Frameless buffered read of one full chunk. Cache hits — the steady
  /// state — queue a guest-bus copy with zero frames; a miss
  /// symmetric-transfers into one pooled coroutine for the backend fetch
  /// (see read_miss). Same awaited-in-place contract as WriteAwaiter.
  struct [[nodiscard]] ReadAwaiter {
    PageCache& pc;
    ChunkId c;
    sim::FifoStation::Node bus;
    sim::Task miss;

    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      if (pc.lru_.contains(c)) {
        ++pc.hits_;
        pc.lru_.insert(c);  // refresh recency
        bus.service_s = pc.img_.chunk_bytes / pc.cfg_.read_Bps;
        bus.cont = h;
        pc.guest_bus_.submit(&bus);
        return std::noop_coroutine();
      }
      miss = pc.read_miss(c);
      return miss.await_suspend(h);  // start the fetch, parent as continuation
    }
    void await_resume() {
      if (miss.valid()) miss.await_resume();  // propagate a backend exception, if any
    }
  };

  /// Buffered write of one full chunk.
  WriteAwaiter write_chunk(ChunkId c) noexcept {
    assert(c < img_.num_chunks());
    return WriteAwaiter{*this, c, nullptr, {}, {}};
  }
  /// Buffered read of one full chunk (miss fetches through the backend).
  ReadAwaiter read_chunk(ChunkId c) noexcept {
    assert(c < img_.num_chunks());
    return ReadAwaiter{*this, c, {}, {}};
  }
  /// fsync: wait until no dirty chunk remains, then sync the backend.
  sim::Task fsync();
  /// Drop any clean cached copy of `c` (used by failure-injection tests).
  void invalidate(ChunkId c);

  std::uint64_t dirty_bytes() const noexcept {
    return drain_.dirty_count() * img_.chunk_bytes;
  }
  std::size_t cached_chunks() const noexcept { return lru_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t writeback_ops() const noexcept { return drain_.writes(); }
  std::uint64_t throttle_events() const noexcept { return throttle_events_; }

 private:
  /// The drain's write leg: wait for the backend to take the chunk.
  struct BackendWrite {
    BlockBackend& backend;
    sim::Task operator()(ChunkId c) const { return backend.backend_write_chunk(c); }
  };

  sim::Task read_miss(ChunkId c);
  /// Evict clean, unpinned LRU entries until one more chunk fits beside
  /// the resident set and the reservations. False when no chunk can leave
  /// (the caller waits for write-back progress and retries).
  bool make_room();
  bool write_pending(ChunkId c) const noexcept;
  bool can_leave(ChunkId c) const noexcept {
    return !drain_.dirty(c) && !write_pending(c);
  }
  void drop(ChunkId c);
  void insert(ChunkId c);

  BlockBackend& backend_;
  ImageConfig img_;
  PageCacheConfig cfg_;
  LruChunkSet lru_;
  // Fills made room for but not yet inserted (writes to absent chunks).
  std::uint32_t reserved_ = 0;
  // Writes between making room and inserting, oldest first: each pins its
  // chunk, and the guest bus completes them in this order.
  sim::IntrusiveQueue<WriteAwaiter> writing_;
  sim::FifoStation guest_bus_;
  WriteBackDrain<BackendWrite> drain_;
  std::function<void(ChunkId)> touch_hook_;
  std::function<void(ChunkId)> release_hook_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t throttle_events_ = 0;
};

}  // namespace hm::storage
