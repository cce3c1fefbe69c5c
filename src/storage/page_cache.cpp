#include "storage/page_cache.h"

#include <cassert>

namespace hm::storage {

PageCache::PageCache(sim::Simulator& sim, BlockBackend& backend, ImageConfig img,
                     PageCacheConfig cfg)
    : sim_(sim),
      backend_(backend),
      img_(img),
      cfg_(cfg),
      state_(img.num_chunks(), State::kAbsent),
      lru_(static_cast<std::size_t>(cfg.capacity_bytes / img.chunk_bytes),
           img.num_chunks()),
      dirty_(img.num_chunks()),
      guest_bus_(sim, 1),
      wb_wakeup_(sim),
      wb_progress_(sim) {}

void PageCache::mark_dirty(ChunkId c) {
  if (c == wb_inflight_) wb_redirtied_ = true;
  dirty_.set(c);
  state_[c] = State::kDirty;
  if (!wb_running_) {
    wb_running_ = true;
    sim_.spawn(writeback_loop());
  }
  wb_wakeup_.notify_all();
}

sim::Task PageCache::writeback_loop() {
  const std::uint32_t n = img_.num_chunks();
  for (;;) {
    if (run_gate_ != nullptr) co_await run_gate_->wait_open();
    if (!dirty_.any()) {
      co_await wb_wakeup_.wait();
      continue;
    }
    // Round-robin over the dirty bitmap: resume after the last written
    // chunk, wrap at the end. Clean regions are skipped 64 chunks per word.
    std::uint64_t next = dirty_.find_next(wb_cursor_);
    if (next == util::DirtyBitmap::npos) next = dirty_.find_next(0);
    const ChunkId c = static_cast<ChunkId>(next);
    wb_cursor_ = (c + 1 < n) ? c + 1 : 0;
    wb_inflight_ = c;
    wb_redirtied_ = false;
    co_await backend_.backend_write_chunk(c);
    ++writeback_ops_;
    // Only clean the chunk if it was not re-dirtied while the write-back
    // was in flight; otherwise the bit stays set and the cursor revisits it
    // on its next lap (which is what keeps write-back fair).
    if (!wb_redirtied_) {
      dirty_.reset(c);
      if (state_[c] == State::kDirty) state_[c] = State::kClean;
    }
    wb_inflight_ = kNoChunk;
    wb_progress_.notify_all();
  }
}

bool PageCache::try_reserve_capacity() {
  while (lru_.size() >= lru_.capacity() && lru_.capacity() > 0) {
    bool evicted = false;
    // Walk the intrusive LRU list from the cold end for a clean victim
    // (dirty entries must survive until write-back cleans them).
    for (std::uint32_t c = lru_.least_recent(); c != LruChunkSet::kNil;
         c = lru_.more_recent(static_cast<ChunkId>(c))) {
      if (state_[c] == State::kClean) {
        lru_.erase(static_cast<ChunkId>(c));
        state_[c] = State::kAbsent;
        if (release_hook_) release_hook_(static_cast<ChunkId>(c));
        evicted = true;
        break;
      }
    }
    if (!evicted) return false;
  }
  return true;
}

// The write state machine, stepped from await_suspend and from wb_progress /
// guest-bus wakeups. Each case is one wait point: falling out of a case
// means the wait completed synchronously; returning after parking `node`
// leaves the awaiting coroutine suspended.
void PageCache::WriteAwaiter::step() {
  switch (st) {
    case St::kThrottle:
      // Dirty throttling: while over the dirty limit, writers advance only
      // as fast as write-back drains.
      if (pc.dirty_bytes() >= pc.cfg_.dirty_limit_bytes) {
        ++pc.throttle_events_;
        pc.wb_progress_.add_waiter(&node);
        return;
      }
      st = St::kReserve;
      [[fallthrough]];
    case St::kReserve:
      if (!pc.try_reserve_capacity()) {
        pc.wb_progress_.add_waiter(&node);
        return;
      }
      st = St::kCopy;
      if (!pc.guest_bus_.try_acquire()) {
        // Woken from the semaphore queue = the permit was handed to us.
        pc.guest_bus_.add_waiter(&node);
        return;
      }
      [[fallthrough]];
    case St::kCopy:
      pc.sim_.schedule(pc.img_.chunk_bytes / pc.cfg_.write_Bps,
                       [self = this] { self->cont.resume(); });
      return;
  }
}

void PageCache::ReadAwaiter::start_copy() {
  pc.sim_.schedule(pc.img_.chunk_bytes / pc.cfg_.read_Bps,
                   [self = this] { self->cont.resume(); });
}

sim::Task PageCache::read_miss(ChunkId c) {
  ++misses_;
  co_await backend_.backend_read_chunk(c);
  while (!try_reserve_capacity()) co_await wb_progress_.wait();
  if (state_[c] == State::kAbsent) {
    state_[c] = State::kClean;
    lru_.insert(c);
    if (touch_hook_) touch_hook_(c);  // fill writes into guest RAM
  }
}

sim::Task PageCache::fsync() {
  while (dirty_.any() || wb_inflight_ != kNoChunk) {
    co_await wb_progress_.wait();
  }
  co_await backend_.backend_sync();
}

void PageCache::invalidate(ChunkId c) {
  if (c < state_.size() && state_[c] == State::kClean) {
    state_[c] = State::kAbsent;
    lru_.erase(c);
    if (release_hook_) release_hook_(c);
  }
}

}  // namespace hm::storage
