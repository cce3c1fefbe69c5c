#include "storage/chunk_store.h"

namespace hm::storage {

ChunkStore::ChunkStore(sim::Simulator& sim, Disk& disk, ImageConfig img, ChunkStoreConfig cfg)
    : disk_(disk),
      img_(img),
      cfg_(cfg),
      num_chunks_(img.num_chunks()),
      present_(num_chunks_),
      modified_(num_chunks_),
      cache_(static_cast<std::size_t>(cfg.host_cache_bytes / img.chunk_bytes), num_chunks_),
      bus_(sim),
      drain_(sim, num_chunks_, DiskWrite{disk, static_cast<double>(img.chunk_bytes)}) {}

std::vector<ChunkId> ChunkStore::modified_set() const {
  std::vector<ChunkId> out;
  out.reserve(modified_.count());
  for_each_modified([&](ChunkId c) { out.push_back(c); });
  return out;
}

}  // namespace hm::storage
