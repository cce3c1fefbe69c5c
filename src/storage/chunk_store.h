// Per-node on-disk replica of a VM disk image at chunk granularity.
//
// Mirrors the paper's FUSE-level state: which chunks exist locally
// (`present`), which differ from the base image (`modified` — the paper's
// ModifiedSet), plus a host-RAM write-back cache in front of the physical
// disk. The testbed nodes had 16 GB of host RAM and ~55 MB/s disks, so chunk
// writes issued by the migration manager land in host cache at memory speed
// and are flushed to disk in the background; reads of recently written
// chunks (the common case when pushing fresh data) are served from host RAM.
// The default 6 GiB host cache holds more than a whole 4 GiB image, so it
// never evicts: its LruChunkSet is then a bare residency bitmap with no
// recency links (a smaller cache, or a bigger image, keeps them).
//
// Host-dirty bookkeeping is one bit per chunk: mark_host_dirty sets the
// chunk's bit, and the background flusher scans the bitmap with a
// round-robin cursor (word-skip over clean regions). The flusher has
// exactly one disk write in flight, so detecting a re-dirty during that
// write needs two members, not a per-chunk array: the in-flight chunk id
// and a flag that mark_host_dirty raises when it hits that id — no deque,
// no hash probes on the write path.
//
// read_chunk/write_chunk/install_base_chunk are frameless awaitables: the
// fixed-latency bus or disk leg is an intrusive FifoStation node embedded
// in the awaiter, and the state updates after the leg run in await_resume —
// no coroutine frame and no heap allocation per chunk op.
// A queued request's handoff rides the simulator's fast lane (seq-stamped
// ring push).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/disk.h"
#include "util/bitmap.h"

namespace hm::storage {

using ChunkId = std::uint32_t;
/// "No chunk" sentinel (an idle flusher, an unlinked LRU neighbour).
constexpr ChunkId kNoChunk = 0xffffffffu;

constexpr std::uint64_t kKiB = 1024ULL;
constexpr std::uint64_t kMiB = 1024ULL * kKiB;
constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// Geometry of a VM disk image, shared by every component that handles it.
struct ImageConfig {
  std::uint64_t image_bytes = 4 * kGiB;
  std::uint32_t chunk_bytes = 256 * kKiB;  // paper's BlobSeer stripe size

  std::uint32_t num_chunks() const noexcept {
    return static_cast<std::uint32_t>((image_bytes + chunk_bytes - 1) / chunk_bytes);
  }
  ChunkId chunk_of(std::uint64_t offset) const noexcept {
    return static_cast<ChunkId>(offset / chunk_bytes);
  }
};

/// LRU set of chunk ids (host page cache residency).
///
/// Intrusive doubly-linked list threaded through a flat slot vector indexed
/// by chunk id, with membership in a packed bitmap: contains() is one bit
/// test, insert/refresh/erase are pointer splices with zero allocation. A
/// slot is two links, 8 B per chunk.
/// Given a universe, the bitmap and the slot vector are sized to it once,
/// so inserts never allocate; with universe 0 both grow to the largest id
/// seen. Slots are default-initialized, i.e. left unwritten: only a
/// member's slot is ever read, and it was written when the member was
/// linked, so neither sizing nor growth touches a page beyond the slots
/// that inserts write.
/// The links exist only to pick a victim, so a set that can never evict
/// keeps none: with a universe smaller than the capacity, every id fits
/// at once, insert/erase touch only the bitmap and the slot vector stays
/// empty. A set with capacity == universe keeps its links, because a
/// cache that reserves room before it inserts (PageCache) evicts once the
/// set is full, not only when it overflows.
class LruChunkSet {
 public:
  explicit LruChunkSet(std::size_t capacity, std::size_t universe = 0)
      : capacity_(capacity), in_(universe), linked_(universe == 0 || capacity <= universe) {
    if (linked_) slots_.resize(universe);
  }

  bool contains(ChunkId c) const noexcept { return c < in_.size() && in_.test(c); }
  std::size_t size() const noexcept { return static_cast<std::size_t>(in_.count()); }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Insert or refresh c; returns true if an old entry was evicted.
  bool insert(ChunkId c) {
    if (!linked_) {
      assert(c < in_.size());
      in_.set(c);
      return false;
    }
    if (c >= slots_.size()) {
      slots_.resize(c + 1);
      in_.grow(c + 1);  // no-op inside the constructor's universe
    }
    if (!in_.set(c)) {
      if (head_ != c) {
        unlink(c);
        link_front(c);
      }
      return false;
    }
    link_front(c);
    if (capacity_ > 0 && size() > capacity_) {
      erase(static_cast<ChunkId>(tail_));
      return true;
    }
    return false;
  }

  void erase(ChunkId c) {
    if (!contains(c)) return;
    if (linked_) unlink(c);
    in_.reset(c);
  }

  /// Whether the set keeps recency links (it can evict; see above).
  bool linked() const noexcept { return linked_; }

  /// Least-recently-used member (kNil when empty); exposed so eviction
  /// policies can scan from the cold end instead of by id. Only a linked
  /// set orders its members.
  static constexpr std::uint32_t kNil = kNoChunk;
  std::uint32_t least_recent() const noexcept {
    assert(linked_);
    return tail_;
  }
  /// Next-more-recent member after c (walks cold -> hot).
  std::uint32_t more_recent(ChunkId c) const noexcept {
    assert(linked_);
    return slots_[c].prev;
  }

 private:
  struct Slot {
    std::uint32_t prev;  // toward MRU
    std::uint32_t next;  // toward LRU
  };
  /// Constructs elements by default-initialization, so resize() writes
  /// nothing into a trivial Slot.
  template <class T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <class U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };

  void link_front(ChunkId c) noexcept {
    Slot& s = slots_[c];
    s.prev = kNil;
    s.next = head_;
    if (head_ != kNil) slots_[head_].prev = c;
    head_ = c;
    if (tail_ == kNil) tail_ = c;
  }
  void unlink(ChunkId c) noexcept {
    Slot& s = slots_[c];
    if (s.prev != kNil)
      slots_[s.prev].next = s.next;
    else
      head_ = s.next;
    if (s.next != kNil)
      slots_[s.next].prev = s.prev;
    else
      tail_ = s.prev;
    s.prev = s.next = kNil;
  }

  std::size_t capacity_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  util::DirtyBitmap in_;       // membership, one bit per chunk id
  bool linked_;                // false: cannot evict, no slots kept
  std::vector<Slot, DefaultInitAllocator<Slot>> slots_;
};

struct ChunkStoreConfig {
  std::uint64_t host_cache_bytes = 6 * kGiB;  // host RAM available for the image file
  /// Sustained virtual-disk throughput through the FUSE layer (host cache
  /// absorbs bursts, but long-run drainage is bounded by the host's
  /// write-back to the 55 MB/s disk plus FUSE/memcpy overhead). Two
  /// consequences calibrated against the paper: (1) the guest's dirty
  /// throttling caps sustained in-VM writes near this rate, keeping the
  /// memory dirty rate below the NIC so pre-copy memory migration can
  /// converge under I/O load; (2) migration push reads share this path with
  /// guest write-back, which is the mechanism behind the in-VM write
  /// throughput degradation during migration.
  double host_bus_Bps = 100.0e6;
};

class ChunkStore {
 public:
  ChunkStore(sim::Simulator& sim, Disk& disk, ImageConfig img, ChunkStoreConfig cfg = {});
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  const ImageConfig& image() const noexcept { return img_; }
  std::uint32_t num_chunks() const noexcept { return num_chunks_; }

  bool present(ChunkId c) const noexcept { return present_.test(c); }
  bool modified(ChunkId c) const noexcept { return modified_.test(c); }
  std::uint32_t present_count() const noexcept {
    return static_cast<std::uint32_t>(present_.count());
  }
  std::uint32_t modified_count() const noexcept {
    return static_cast<std::uint32_t>(modified_.count());
  }
  std::vector<ChunkId> modified_set() const;
  /// Word-scan the ModifiedSet without materializing a vector (migrators'
  /// round seeding).
  template <class F>
  void for_each_modified(F&& fn) const {
    modified_.for_each_set([&](std::uint64_t c) { fn(static_cast<ChunkId>(c)); });
  }

  /// Frameless write awaitable: metadata (present/modified) commits at
  /// issue time — the FUSE layer updates its chunk accounting in the write
  /// request path (Algorithm 2), before the data movement pays the host-bus
  /// service. Cache/host-dirty state reflects data arrival and updates in
  /// await_resume. Committing the bits at issue closes a lost-update race:
  /// a migration that snapshots the ModifiedSet while a guest write is
  /// still on the bus must count that write, or it silently never
  /// transfers the chunk.
  struct [[nodiscard]] WriteAwaiter {
    ChunkStore& st;
    ChunkId c;
    bool mark_modified;  // false for base-image installs
    sim::FifoStation::Node node;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      st.present_.set(c);
      if (mark_modified) st.modified_.set(c);
      node.service_s = st.img_.chunk_bytes / st.cfg_.host_bus_Bps;
      node.cont = h;
      st.bus_.submit(&node);
    }
    void await_resume() const {
      st.cache_.insert(c);
      st.mark_host_dirty(c);
    }
  };

  /// Frameless read awaitable: a host-cache hit costs a bus service, a miss
  /// queues on the disk (and inserts into the cache afterwards).
  struct [[nodiscard]] ReadAwaiter {
    ChunkStore& st;
    ChunkId c;
    bool hit = false;
    sim::FifoStation::Node node;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      node.cont = h;
      if (st.cache_.contains(c)) {
        hit = true;
        ++st.cache_hits_;
        st.cache_.insert(c);  // refresh LRU position
        node.service_s = st.img_.chunk_bytes / st.cfg_.host_bus_Bps;
        st.bus_.submit(&node);
        return;
      }
      ++st.cache_misses_;
      node.service_s = st.disk_.service_time(st.img_.chunk_bytes);
      st.disk_.station().submit(&node);
    }
    void await_resume() const {
      if (hit) return;
      st.disk_.account(st.img_.chunk_bytes, /*is_write=*/false, node.service_s);
      st.cache_.insert(c);
    }
  };

  /// Write a full chunk to the local image (host cache write; background
  /// flush drains it to disk). Marks the chunk modified w.r.t. the base.
  WriteAwaiter write_chunk(ChunkId c) noexcept {
    assert(c < num_chunks_);
    return WriteAwaiter{*this, c, /*mark_modified=*/true, {}};
  }
  /// Read a chunk: host-cache hit costs a bus transfer, miss a disk read.
  /// Caller must ensure the chunk is present.
  ReadAwaiter read_chunk(ChunkId c) noexcept {
    assert(c < num_chunks_ && present_.test(c));
    return ReadAwaiter{*this, c, /*hit=*/false, {}};
  }
  /// Install base-image content fetched from the repository (present but
  /// NOT modified — it matches the base and never needs migrating).
  WriteAwaiter install_base_chunk(ChunkId c) noexcept {
    assert(c < num_chunks_);
    return WriteAwaiter{*this, c, /*mark_modified=*/false, {}};
  }
  /// Wait until every host-dirty chunk reached the physical disk.
  sim::Task flush();

  bool host_cached(ChunkId c) const noexcept { return cache_.contains(c); }
  std::size_t host_dirty_chunks() const noexcept {
    return static_cast<std::size_t>(host_dirty_.count());
  }
  std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  std::uint64_t cache_misses() const noexcept { return cache_misses_; }
  Disk& disk() noexcept { return disk_; }

 private:
  sim::Task flusher_loop();
  void mark_host_dirty(ChunkId c);

  sim::Simulator& sim_;
  Disk& disk_;
  ImageConfig img_;
  ChunkStoreConfig cfg_;
  std::uint32_t num_chunks_;
  util::DirtyBitmap present_;
  util::DirtyBitmap modified_;
  LruChunkSet cache_;
  sim::FifoStation bus_;  // host-bus arbitration (single server, FIFO)
  // Host-dirty bookkeeping: bit set while a chunk is cached but not yet on
  // disk. flush_redirtied_ records a mark_host_dirty of flush_inflight_
  // (the chunk under the one in-flight disk write, kNoChunk when idle).
  util::DirtyBitmap host_dirty_;
  ChunkId flush_inflight_ = kNoChunk;
  bool flush_redirtied_ = false;
  std::uint32_t flush_cursor_ = 0;
  sim::Notification flush_wakeup_;
  sim::Notification flush_progress_;
  bool flusher_running_ = false;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
};

}  // namespace hm::storage
