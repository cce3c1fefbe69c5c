#include "core/precopy_migrator.h"

namespace hm::core {

PrecopySession::PrecopySession(sim::Simulator& sim, vm::Cluster& cluster,
                               MigrationManager* mgr, net::NodeId dst_node,
                               MigrationRecord& rec)
    : StorageMigrationSession(sim, cluster, mgr, dst_node, rec),
      xfer_(std::in_place, mgr->replica().image()) {}

PrecopySession::TransferState::TransferState(const storage::ImageConfig& img)
    : cow(img), dirty(img.num_chunks()), send_count(img.num_chunks(), 0) {}

void PrecopySession::start() {
  // Bulk phase: every chunk of the qcow2 snapshot (= every modified chunk)
  // is queued for the first round; on a retry, chunks already current at
  // the adopted destination are skipped.
  mgr_->replica().for_each_modified([this](ChunkId c) {
    xfer().cow.on_write(c);
    if (resumed_current(c)) return;
    xfer().dirty.set(c);
  });
}

double PrecopySession::residual_storage_bytes() const {
  return static_cast<double>(xfer().dirty.count()) *
         static_cast<double>(src_store_->image().chunk_bytes);
}

sim::Task PrecopySession::vm_write(ChunkId c) {
  // Dirty tracking commits in the request path so a round scan racing the
  // in-flight local write still counts it (same ordering as Algorithm 2).
  if (!control_transferred_) {
    xfer().cow.on_write(c);
    xfer().dirty.set(c);
  }
  co_await mgr_->local_write(c);
}

sim::Task PrecopySession::send_chunks(const std::vector<ChunkId>& chunks) {
  auto& net = cluster_.network();
  const double chunk_bytes = src_store_->image().chunk_bytes;
  std::size_t i = 0;
  while (i < chunks.size()) {
    if (aborted_) break;
    const std::size_t n = std::min(kBatchChunks, chunks.size() - i);
    for (std::size_t k = 0; k < n; ++k) co_await src_store_->read_chunk(chunks[i + k]);
    if (!co_await net.transfer(src_node_, dst_node_, chunk_bytes * static_cast<double>(n),
                               net::TrafficClass::kStoragePush))
      break;  // crash under the batch: it never arrived
    for (std::size_t k = 0; k < n; ++k) {
      co_await dst_store_->write_chunk(chunks[i + k]);
      ++xfer().send_count[chunks[i + k]];
      ++chunks_sent_;
      rec_.storage_chunks_pushed += 1;
    }
    i += n;
  }
  // Everything unsent goes back into the dirty set so the retry (or the
  // next round) re-streams it.
  for (; i < chunks.size(); ++i) xfer().dirty.set(chunks[i]);
}

// One block-migration round: snapshot the dirty set (word-granular drain)
// and stream it. Chunks re-dirtied while streaming are picked up by the
// next round.
sim::Task PrecopySession::storage_round() {
  ++rounds_;
  std::vector<ChunkId> batch;
  batch.reserve(xfer().dirty.count());
  xfer().dirty.drain([&](std::uint64_t c) { batch.push_back(static_cast<ChunkId>(c)); });
  co_await send_chunks(batch);
}

// Stop-and-copy: the VM is paused, flush the (small) residual dirty set.
sim::Task PrecopySession::pre_control_transfer() { co_await storage_round(); }

// The destination holds the full snapshot at control transfer; the source
// is released immediately (Table 1 semantics).
sim::Task PrecopySession::wait_source_released() { co_return; }

}  // namespace hm::core
