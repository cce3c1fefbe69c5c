#include "core/mirror_migrator.h"

namespace hm::core {

MirrorSession::MirrorSession(sim::Simulator& sim, vm::Cluster& cluster,
                             MigrationManager* mgr, net::NodeId dst_node,
                             MigrationRecord& rec)
    : StorageMigrationSession(sim, cluster, mgr, dst_node, rec),
      mirrored_(std::in_place, mgr->replica().num_chunks(), 0),
      bg_done_(sim, /*open=*/false),
      drain_(sim) {}

void MirrorSession::start() {
  // Chunks preserved at an adopted destination need no re-mirroring.
  for (ChunkId c = 0; c < mirrored().size(); ++c)
    if (resumed_current(c)) mirrored()[c] = 1;
  spawn_task(background_copy());
}

void MirrorSession::abort() {
  StorageMigrationSession::abort();
  // Unblock pre_control_transfer / wait_ready_to_complete; the background
  // task itself bails at the next loop head or failed transfer.
  bg_done_.open();
  drain_.notify_all();
}

sim::Task MirrorSession::background_copy() {
  auto& net = cluster_.network();
  const double chunk_bytes = src_store_->image().chunk_bytes;
  // Haselhorst-style mirroring works at the block-device level and has no
  // notion of a shared base image: the copy streams the entire disk,
  // present or not, not just the locally modified chunks.
  const ChunkId n = src_store_->num_chunks();
  ChunkId next = 0;
  while (next < n) {
    if (aborted_) break;
    std::vector<ChunkId> batch;
    while (next < n && batch.size() < kBatchChunks) {
      const ChunkId c = next++;
      if (!mirrored()[c]) batch.push_back(c);  // sync writes may have covered it
    }
    if (batch.empty()) continue;
    for (ChunkId c : batch) {
      // Present chunks are read through the host path; untouched parts of
      // the disk are raw disk reads on the source.
      if (src_store_->present(c)) {
        co_await src_store_->read_chunk(c);
      } else {
        co_await src_store_->disk().read(chunk_bytes);
      }
    }
    if (!co_await net.transfer(src_node_, dst_node_,
                               chunk_bytes * static_cast<double>(batch.size()),
                               net::TrafficClass::kStoragePush))
      break;  // crash under the batch; the retry re-streams un-mirrored chunks
    for (ChunkId c : batch) {
      if (dst_store_ == nullptr) break;  // salvaged mid-batch: no replica left
      co_await dst_store_->write_chunk(c);
      mirrored()[c] = 1;
      ++bg_copied_;
      rec_.storage_chunks_pushed += 1;
    }
  }
  bg_done_.open();
  task_exited();
}

sim::Task MirrorSession::mirror_remote_write(ChunkId c, sim::WaitGroup& wg) {
  auto& net = cluster_.network();
  const bool ok = co_await net.transfer(src_node_, dst_node_,
                                        src_store_->image().chunk_bytes,
                                        net::TrafficClass::kStoragePush);
  if (ok && !aborted_) {
    co_await dst_store_->write_chunk(c);
    mirrored()[c] = 1;
    ++writes_mirrored_;
    rec_.storage_chunks_pushed += 1;
  }
  wg.done();  // the guest write must never deadlock on a failed mirror leg
  task_exited();
}

// Writes complete on the source only after they also complete on the
// destination (the defining property of this baseline).
sim::Task MirrorSession::vm_write(ChunkId c) {
  if (control_transferred_) {
    co_await mgr_->local_write(c);
    co_return;
  }
  ++inflight_writes_;
  sim::WaitGroup wg(sim_);
  wg.add(2);
  sim_.spawn([](MirrorSession* self, ChunkId chunk, sim::WaitGroup& w) -> sim::Task {
    co_await self->mgr_->local_write(chunk);
    w.done();
  }(this, c, wg));
  spawn_task(mirror_remote_write(c, wg));
  co_await wg.wait();
  --inflight_writes_;
  drain_.notify_all();
}

sim::Task MirrorSession::wait_ready_to_complete() { co_await bg_done_.wait_open(); }

// Control may move only once the destination is a full replica: the
// background copy finished before stop-and-copy (ready_to_complete), so the
// paused-VM part only drains the last in-flight mirrored writes.
sim::Task MirrorSession::pre_control_transfer() {
  co_await bg_done_.wait_open();
  if (aborted_) co_return;
  while (inflight_writes_ > 0 && !aborted_) co_await drain_.wait();
}

sim::Task MirrorSession::wait_source_released() { co_return; }

}  // namespace hm::core
