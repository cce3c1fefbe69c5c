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
#include <optional>
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
  /// Sent and not re-dirtied since.
  bool current_at_destination(ChunkId c) const override { return !xfer().dirty.test(c); }

  bool converges_with_memory() const override { return true; }
  double residual_storage_bytes() const override;
  sim::Task storage_round() override;

  std::uint64_t chunks_sent() const noexcept { return chunks_sent_; }
  std::uint64_t rounds() const noexcept { return rounds_; }
  // Per-chunk, so valid only until release_transfer_state().
  std::uint32_t send_count(ChunkId c) const { return xfer().send_count[c]; }
  const storage::CowImage& cow() const noexcept { return xfer().cow; }

 private:
  /// The per-chunk state of one attempt, dropped in one statement when it
  /// ends. Every task that touches it is awaited by the hypervisor, so the
  /// release never has to wait for one.
  struct TransferState {
    explicit TransferState(const storage::ImageConfig& img);

    storage::CowImage cow;
    // Packed dirty-chunk map; rounds snapshot it with a word-granular drain.
    util::DirtyBitmap dirty;
    std::vector<std::uint32_t> send_count;
  };

  TransferState& xfer() noexcept { return live(xfer_); }
  const TransferState& xfer() const noexcept { return live(xfer_); }
  void drop_transfer_state() noexcept override { xfer_.reset(); }

  sim::Task send_chunks(const std::vector<ChunkId>& chunks);

  std::optional<TransferState> xfer_;
  std::uint64_t chunks_sent_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace hm::core
