#include "storage/chunk_store.h"

#include <cassert>

namespace hm::storage {

ChunkStore::ChunkStore(sim::Simulator& sim, Disk& disk, ImageConfig img, ChunkStoreConfig cfg)
    : sim_(sim),
      disk_(disk),
      img_(img),
      cfg_(cfg),
      num_chunks_(img.num_chunks()),
      present_(num_chunks_),
      modified_(num_chunks_),
      cache_(static_cast<std::size_t>(cfg.host_cache_bytes / img.chunk_bytes), num_chunks_),
      bus_(sim),
      host_dirty_(num_chunks_),
      flush_wakeup_(sim),
      flush_progress_(sim) {}

std::vector<ChunkId> ChunkStore::modified_set() const {
  std::vector<ChunkId> out;
  out.reserve(modified_.count());
  for_each_modified([&](ChunkId c) { out.push_back(c); });
  return out;
}

void ChunkStore::mark_host_dirty(ChunkId c) {
  if (c == flush_inflight_) flush_redirtied_ = true;
  host_dirty_.set(c);
  if (!flusher_running_) {
    flusher_running_ = true;
    sim_.spawn(flusher_loop());
  }
  flush_wakeup_.notify_all();
}

sim::Task ChunkStore::flusher_loop() {
  for (;;) {
    if (!host_dirty_.any()) {
      co_await flush_wakeup_.wait();
      continue;
    }
    // Round-robin over the dirty bitmap: resume after the last flushed
    // chunk, wrap at the end. Clean regions are skipped 64 chunks per word.
    std::uint64_t next = host_dirty_.find_next(flush_cursor_);
    if (next == util::DirtyBitmap::npos) next = host_dirty_.find_next(0);
    const ChunkId c = static_cast<ChunkId>(next);
    flush_cursor_ = (c + 1 < num_chunks_) ? c + 1 : 0;
    flush_inflight_ = c;
    flush_redirtied_ = false;
    co_await disk_.write(img_.chunk_bytes);
    // Only clean the bit if the chunk was not re-dirtied while the write
    // was in flight; otherwise leave it set and the cursor revisits it.
    if (!flush_redirtied_) host_dirty_.reset(c);
    flush_inflight_ = kNoChunk;
    flush_progress_.notify_all();
  }
}

sim::Task ChunkStore::flush() {
  while (host_dirty_.any()) co_await flush_progress_.wait();
}

}  // namespace hm::storage
