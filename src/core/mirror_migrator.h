// Mirroring baseline (Haselhorst et al., reproduced per Section 5.2.2):
// a background task copies the whole disk to the destination while every
// new write is issued synchronously to BOTH source and destination — a
// write completes only after both replicas have it. This guarantees
// convergence but inflates write latency, throttling the guest under I/O
// intensive workloads (the trade-off the paper measures).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/migration_manager.h"

namespace hm::core {

class MirrorSession final : public StorageMigrationSession {
 public:
  /// Chunks per background-copy transfer.
  static constexpr std::size_t kBatchChunks = 16;

  MirrorSession(sim::Simulator& sim, vm::Cluster& cluster, MigrationManager* mgr,
                net::NodeId dst_node, MigrationRecord& rec);

  void start() override;
  sim::Task pre_control_transfer() override;
  sim::Task wait_source_released() override;
  sim::Task vm_write(ChunkId c) override;
  void abort() override;
  /// Copied or mirrored there (a later guest write is mirrored too).
  bool current_at_destination(ChunkId c) const override { return live(mirrored_)[c] != 0; }
  bool ready_to_complete() const override { return bg_done_.is_open(); }
  sim::Task wait_ready_to_complete() override;

  std::uint64_t chunks_copied_background() const noexcept { return bg_copied_; }
  std::uint64_t writes_mirrored() const noexcept { return writes_mirrored_; }

 private:
  std::vector<std::uint8_t>& mirrored() noexcept { return live(mirrored_); }
  void drop_transfer_state() noexcept override { mirrored_.reset(); }

  sim::Task background_copy();
  sim::Task mirror_remote_write(ChunkId c, sim::WaitGroup& wg);

  // Chunk already at destination: the per-chunk transfer state.
  std::optional<std::vector<std::uint8_t>> mirrored_;
  std::size_t inflight_writes_ = 0;  // guest writes awaiting both legs
  sim::Gate bg_done_;
  sim::Notification drain_;
  std::uint64_t bg_copied_ = 0;
  std::uint64_t writes_mirrored_ = 0;
};

}  // namespace hm::core
