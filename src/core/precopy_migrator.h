// QEMU-style incremental block migration baseline (Section 5.2.2, "precopy").
//
// Local modifications live in a qcow2 snapshot; the hypervisor migrates the
// snapshot together with memory using pre-copy: a bulk phase pushes every
// allocated chunk, then iterative rounds re-send chunks dirtied in the
// meantime. Storage converges *together* with memory — under heavy I/O the
// disk may change faster than it can be copied, so this approach inherits
// pre-copy's non-convergence problem (the paper's core criticism).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/migration_manager.h"
#include "storage/cow_image.h"
#include "util/bitmap.h"

namespace hm::core {

class PrecopySession final : public StorageMigrationSession {
 public:
  /// Chunks streamed per batched transfer inside a round.
  static constexpr std::size_t kBatchChunks = 16;

  PrecopySession(sim::Simulator& sim, vm::Cluster& cluster, MigrationManager* mgr,
                 net::NodeId dst_node, MigrationRecord& rec);

  void start() override;
  sim::Task pre_control_transfer() override;
  sim::Task wait_source_released() override;
  sim::Task vm_write(ChunkId c) override;
  std::unique_ptr<storage::ChunkStore> take_partial_destination(
      util::DirtyBitmap* valid_out) override;

  bool converges_with_memory() const override { return true; }
  double residual_storage_bytes() const override;
  sim::Task storage_round() override;

  std::uint64_t chunks_sent() const noexcept { return chunks_sent_; }
  std::uint64_t rounds() const noexcept { return rounds_; }
  std::uint32_t send_count(ChunkId c) const { return send_count_[c]; }
  const storage::CowImage& cow() const noexcept { return cow_; }

 private:
  sim::Task send_chunks(const std::vector<ChunkId>& chunks);

  storage::CowImage cow_;
  // Packed dirty-chunk map; rounds snapshot it with a word-granular drain.
  util::DirtyBitmap dirty_;
  std::vector<std::uint32_t> send_count_;
  std::uint64_t chunks_sent_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace hm::core
