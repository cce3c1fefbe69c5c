#include "storage/page_cache.h"

namespace hm::storage {

PageCache::PageCache(sim::Simulator& sim, BlockBackend& backend, ImageConfig img,
                     PageCacheConfig cfg)
    : backend_(backend),
      img_(img),
      cfg_(cfg),
      lru_(static_cast<std::size_t>(cfg.capacity_bytes / img.chunk_bytes),
           img.num_chunks()),
      guest_bus_(sim),
      drain_(sim, img.num_chunks(), BackendWrite{backend}) {}

bool PageCache::write_pending(ChunkId c) const noexcept {
  for (const WriteAwaiter* w = writing_.front(); w != nullptr; w = w->next) {
    if (w->c == c) return true;
  }
  return false;
}

void PageCache::drop(ChunkId c) {
  lru_.erase(c);
  if (release_hook_) release_hook_(c);
}

void PageCache::insert(ChunkId c) {
  [[maybe_unused]] const bool evicted = lru_.insert(c);
  assert(!evicted && "PageCache LRU never evicts on insert");
}

bool PageCache::make_room() {
  // A set that holds the whole image (it keeps no links) or has no
  // capacity bound never needs a victim.
  if (!lru_.linked() || lru_.capacity() == 0) return true;
  while (lru_.size() + reserved_ >= lru_.capacity()) {
    // Walk the intrusive LRU list from the cold end for a chunk that can
    // leave: dirty ones wait for write-back, pinned ones for their write.
    std::uint32_t v = lru_.least_recent();
    while (v != LruChunkSet::kNil && !can_leave(static_cast<ChunkId>(v)))
      v = lru_.more_recent(static_cast<ChunkId>(v));
    if (v == LruChunkSet::kNil) return false;
    drop(static_cast<ChunkId>(v));
  }
  return true;
}

// The write state machine, stepped from await_suspend and from the drain's
// progress wakeups. Returning after parking `node` leaves the awaiting
// coroutine suspended; submitting to the guest bus hands it to the copy.
void PageCache::WriteAwaiter::step() {
  if (!throttle_passed) {
    // Dirty throttling: while over the dirty limit, writers advance only
    // as fast as write-back drains.
    if (pc.dirty_bytes() >= pc.cfg_.dirty_limit_bytes) {
      ++pc.throttle_events_;
      pc.drain_.progress().add_waiter(&node);
      return;
    }
    throttle_passed = true;
  }
  if (!pc.lru_.contains(c) && !pc.write_pending(c)) {
    if (!pc.make_room()) {
      pc.drain_.progress().add_waiter(&node);
      return;
    }
    ++pc.reserved_;
    reserved = true;
  }
  pc.writing_.push(this);
  bus.service_s = pc.img_.chunk_bytes / pc.cfg_.write_Bps;
  bus.cont = cont;
  pc.guest_bus_.submit(&bus);
}

sim::Task PageCache::read_miss(ChunkId c) {
  ++misses_;
  co_await backend_.backend_read_chunk(c);
  // A write, or another reader's fill, may have made c resident meanwhile.
  while (!lru_.contains(c)) {
    if (make_room()) {
      insert(c);
      if (touch_hook_) touch_hook_(c);  // fill writes into guest RAM
      break;
    }
    co_await drain_.progress().wait();
  }
}

sim::Task PageCache::fsync() {
  co_await drain_.wait_clean();
  co_await backend_.backend_sync();
}

void PageCache::invalidate(ChunkId c) {
  if (lru_.contains(c) && can_leave(c)) drop(c);
}

}  // namespace hm::storage
