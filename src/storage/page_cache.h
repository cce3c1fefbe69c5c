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
// write_chunk()/read_chunk() are FRAMELESS awaitables, because the guest
// I/O steady state is chunk-at-a-time: the awaiter embeds one WaitNode that
// parks a state-machine step in the throttle/eviction/bus waiter lists, and
// the state updates after the last wait point run in await_resume — no
// coroutine frame per chunk op.
// The read MISS path (backend fetch) still runs as one pooled coroutine,
// started by symmetric transfer from the awaiter: misses leave the steady
// state by definition, and the backend interface is Task-shaped.
//
// Dirty bookkeeping is the same bitmap + round-robin cursor pattern as
// ChunkStore's host-dirty set: mark_dirty sets the chunk's bit, and the
// write-back task scans the bitmap from a cursor (word-skipping clean
// regions). The task has one write-back in flight at a time; mark_dirty of
// that chunk raises a flag that leaves the bit set for the cursor's next
// lap — no per-chunk array, no deque, no hash probes on the write path.
// Fairness holds because the cursor always advances past a just-written
// chunk before considering it again, so a continuously re-dirtied chunk
// cannot starve the rest of the dirty set.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/chunk_store.h"
#include "util/bitmap.h"

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
  void set_run_gate(sim::Gate* gate) noexcept { run_gate_ = gate; }

  /// Hook invoked when a chunk leaves the cache (eviction / invalidate);
  /// the VM uses it to release the backing guest memory pages.
  void set_release_hook(std::function<void(ChunkId)> hook) {
    release_hook_ = std::move(hook);
  }

 private:
  enum class State : std::uint8_t { kAbsent, kClean, kDirty };

 public:
  /// Frameless buffered write of one full chunk. A hand-rolled state
  /// machine over four wait points — dirty throttle, clean-eviction
  /// capacity, guest-bus FIFO, copy delay — with the post-copy state
  /// updates (LRU insert, dirty marking, touch hook) in await_resume.
  /// Non-copyable in effect: the embedded WaitNode's address is
  /// registered with the waiter lists, so the object must be awaited
  /// where it was materialized (`co_await cache.write_chunk(c)`).
  struct [[nodiscard]] WriteAwaiter {
    PageCache& pc;
    ChunkId c;
    std::coroutine_handle<> cont = nullptr;
    sim::WaitNode node;
    enum class St : std::uint8_t { kThrottle, kReserve, kCopy } st = St::kThrottle;

    bool await_ready() const noexcept { return false; }  // the copy always suspends
    void await_suspend(std::coroutine_handle<> h) {
      cont = h;
      node.fn = &step_thunk;
      node.a = this;
      step();
    }
    void await_resume() const {
      pc.guest_bus_.release();
      pc.lru_.insert(c);
      pc.mark_dirty(c);
      if (pc.touch_hook_) pc.touch_hook_(c);
    }

   private:
    static void step_thunk(void* self, void*) {
      static_cast<WriteAwaiter*>(self)->step();
    }
    void step();
  };

  /// Frameless buffered read of one full chunk. Cache hits — the steady
  /// state — run the guest-bus + copy-delay machine with zero frames; a
  /// miss symmetric-transfers into one pooled coroutine for the backend
  /// fetch (see read_miss). Same awaited-in-place contract as WriteAwaiter.
  struct [[nodiscard]] ReadAwaiter {
    PageCache& pc;
    ChunkId c;
    std::coroutine_handle<> cont = nullptr;
    sim::WaitNode node;
    sim::Task miss;
    bool hit = false;

    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      cont = h;
      if (pc.state_[c] != State::kAbsent) {
        hit = true;
        ++pc.hits_;
        pc.lru_.insert(c);
        node.fn = &bus_thunk;
        node.a = this;
        if (pc.guest_bus_.try_acquire())
          start_copy();
        else
          pc.guest_bus_.add_waiter(&node);
        return std::noop_coroutine();
      }
      miss = pc.read_miss(c);
      return miss.await_suspend(h);  // start the fetch, parent as continuation
    }
    void await_resume() {
      if (hit) {
        pc.guest_bus_.release();
        return;
      }
      miss.await_resume();  // propagate a backend exception, if any
    }

   private:
    static void bus_thunk(void* self, void*) {
      static_cast<ReadAwaiter*>(self)->start_copy();
    }
    void start_copy();
  };

  /// Buffered write of one full chunk.
  WriteAwaiter write_chunk(ChunkId c) noexcept {
    assert(c < state_.size());
    return WriteAwaiter{*this, c, nullptr, {}};
  }
  /// Buffered read of one full chunk (miss fetches through the backend).
  ReadAwaiter read_chunk(ChunkId c) noexcept {
    assert(c < state_.size());
    return ReadAwaiter{*this, c, nullptr, {}, {}, false};
  }
  /// fsync: wait until no dirty chunk remains, then sync the backend.
  sim::Task fsync();
  /// Drop any clean cached copy of `c` (used by failure-injection tests).
  void invalidate(ChunkId c);

  std::uint64_t dirty_bytes() const noexcept {
    return dirty_.count() * img_.chunk_bytes;
  }
  std::size_t cached_chunks() const noexcept { return lru_.size(); }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t writeback_ops() const noexcept { return writeback_ops_; }
  std::uint64_t throttle_events() const noexcept { return throttle_events_; }

 private:
  sim::Task writeback_loop();
  sim::Task read_miss(ChunkId c);
  void mark_dirty(ChunkId c);
  /// Evict clean LRU entries until a slot is free. False when everything
  /// resident is dirty (caller waits for write-back progress and retries).
  bool try_reserve_capacity();

  sim::Simulator& sim_;
  BlockBackend& backend_;
  ImageConfig img_;
  PageCacheConfig cfg_;
  std::vector<State> state_;
  LruChunkSet lru_;
  // Dirty bitmap + cursor (see header comment). wb_redirtied_ records a
  // mark_dirty of wb_inflight_ (the chunk under the one in-flight
  // write-back, kNoChunk when idle).
  util::DirtyBitmap dirty_;
  std::uint32_t wb_cursor_ = 0;
  ChunkId wb_inflight_ = kNoChunk;
  bool wb_redirtied_ = false;
  sim::Semaphore guest_bus_;
  sim::Notification wb_wakeup_;
  sim::Notification wb_progress_;
  bool wb_running_ = false;
  std::function<void(ChunkId)> touch_hook_;
  std::function<void(ChunkId)> release_hook_;
  sim::Gate* run_gate_ = nullptr;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writeback_ops_ = 0;
  std::uint64_t throttle_events_ = 0;
};

}  // namespace hm::storage
