#include "storage/cow_image.h"

#include <gtest/gtest.h>

namespace hm::storage {
namespace {

TEST(CowImage, StartsUnallocated) {
  CowImage cow(ImageConfig{16 * kMiB, static_cast<std::uint32_t>(kMiB)});
  EXPECT_EQ(cow.allocated_count(), 0u);
  EXPECT_FALSE(cow.allocated(0));
}

TEST(CowImage, FirstWriteAllocatesAndChargesMetadata) {
  CowImage cow(ImageConfig{16 * kMiB, static_cast<std::uint32_t>(kMiB)});
  const std::uint64_t meta = cow.on_write(3);
  EXPECT_GT(meta, 0u);
  EXPECT_TRUE(cow.allocated(3));
  EXPECT_EQ(cow.allocated_count(), 1u);
  EXPECT_EQ(cow.metadata_bytes_total(), meta);
}

TEST(CowImage, OverwriteIsMetadataFree) {
  CowImage cow(ImageConfig{16 * kMiB, static_cast<std::uint32_t>(kMiB)});
  cow.on_write(3);
  EXPECT_EQ(cow.on_write(3), 0u);
  EXPECT_EQ(cow.allocated_count(), 1u);
}

TEST(CowImage, EachAllocationChargesTheMetadataConstant) {
  CowImage cow(ImageConfig{16 * kMiB, static_cast<std::uint32_t>(kMiB)});
  EXPECT_EQ(CowImage::kMetadataBytesPerAlloc, 8 * kKiB);
  EXPECT_EQ(cow.on_write(0), CowImage::kMetadataBytesPerAlloc);
  EXPECT_EQ(cow.on_write(1), CowImage::kMetadataBytesPerAlloc);
  EXPECT_EQ(cow.metadata_bytes_total(), 2 * CowImage::kMetadataBytesPerAlloc);
}

TEST(CowImage, IndependentChunksTrackIndependently) {
  CowImage cow(ImageConfig{16 * kMiB, static_cast<std::uint32_t>(kMiB)});
  for (ChunkId c = 0; c < 16; c += 2) cow.on_write(c);
  EXPECT_EQ(cow.allocated_count(), 8u);
  for (ChunkId c = 0; c < 16; ++c) EXPECT_EQ(cow.allocated(c), c % 2 == 0);
}

}  // namespace
}  // namespace hm::storage
