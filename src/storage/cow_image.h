// Copy-on-write image overlay bookkeeping (qcow2-like).
//
// The precopy and pvfs-shared baselines store local modifications in a
// qcow2 snapshot of the base image. This class tracks cluster allocation
// and the metadata write amplification a qcow2-style format pays on first
// write to a cluster (L2 table update + refcount block).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/chunk_store.h"

namespace hm::storage {

class CowImage {
 public:
  /// Metadata written on a cluster's first allocation: L2 + refcount updates.
  static constexpr std::uint64_t kMetadataBytesPerAlloc = 8 * kKiB;

  explicit CowImage(ImageConfig img) : img_(img), allocated_(img.num_chunks(), 0) {}

  bool allocated(ChunkId c) const noexcept { return allocated_[c] != 0; }
  std::uint32_t allocated_count() const noexcept { return allocated_count_; }

  /// Record a write to chunk `c`. Returns the number of extra metadata bytes
  /// the format writes for this operation (non-zero on first allocation).
  std::uint64_t on_write(ChunkId c) {
    if (allocated_[c]) return 0;
    allocated_[c] = 1;
    ++allocated_count_;
    metadata_bytes_ += kMetadataBytesPerAlloc;
    return kMetadataBytesPerAlloc;
  }

  std::uint64_t metadata_bytes_total() const noexcept { return metadata_bytes_; }
  const ImageConfig& image() const noexcept { return img_; }

 private:
  ImageConfig img_;
  std::vector<std::uint8_t> allocated_;
  std::uint32_t allocated_count_ = 0;
  std::uint64_t metadata_bytes_ = 0;
};

}  // namespace hm::storage
