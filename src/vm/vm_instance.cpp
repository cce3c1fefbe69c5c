#include "vm/vm_instance.h"

#include <algorithm>

namespace hm::vm {

VmInstance::VmInstance(sim::Simulator& sim, Cluster& cluster, net::NodeId home, int id,
                       storage::BlockBackend& backend, VmConfig cfg)
    : sim_(sim),
      cluster_(cluster),
      node_(home),
      id_(id),
      cfg_(cfg),
      memory_(cfg.memory),
      backend_(backend),
      cache_(sim, backend, cluster.config().image, cfg.cache),
      run_gate_(sim, /*open=*/true),
      rng_(cluster.rng().fork("vm", static_cast<std::uint64_t>(id))) {
  // File data resident in the guest page cache occupies guest RAM mapped at
  // the top of the address space: filling or dirtying cache chunks dirties
  // the corresponding guest pages, which memory pre-copy must transfer.
  const std::uint64_t file_base =
      cfg_.memory.ram_bytes > cfg_.cache.capacity_bytes
          ? cfg_.memory.ram_bytes - cfg_.cache.capacity_bytes
          : 0;
  const std::uint32_t chunk = cluster.config().image.chunk_bytes;
  cache_.set_touch_hook([this, file_base, chunk](storage::ChunkId c) {
    memory_.touch_range(file_base + static_cast<std::uint64_t>(c) * chunk, chunk);
  });
  cache_.set_release_hook([this, file_base, chunk](storage::ChunkId c) {
    memory_.release_range(file_base + static_cast<std::uint64_t>(c) * chunk, chunk);
  });
  cache_.set_run_gate(&run_gate_);
}

bool VmInstance::in_image(const char* op, std::uint64_t offset, std::uint64_t len) {
  const storage::ImageConfig& image = cluster_.config().image;
  // len > 0; the first test keeps offset + len - 1 from wrapping.
  if (len - 1 <= UINT64_MAX - offset &&
      (offset + len - 1) / image.chunk_bytes < image.num_chunks())
    return true;
  if (error_.empty())
    error_ = "vm " + std::to_string(id_) + ": file " + op + " at offset " +
             std::to_string(offset) + " length " + std::to_string(len) +
             " runs past the image end (" + std::to_string(image.image_bytes) + " bytes)";
  return false;
}

sim::Task VmInstance::compute(double seconds, double dirty_Bps, std::uint64_t ws_bytes) {
  const std::uint32_t lane =
      observer_ ? observer_->on_compute(*this, seconds, dirty_Bps, ws_bytes) : 0;
  double rem = seconds;
  while (rem > 0) {
    co_await run_gate_.wait_open();
    const double dt = std::min(cfg_.compute_slice_s, rem);
    // Background host activity (migration thread, FUSE transfer manager,
    // PVFS client) steals CPU from the guest: the slice takes longer in
    // wall-clock time while only `dt` of guest work is accomplished.
    co_await cluster_.node(node_).consume_cpu(dt);
    cpu_seconds_ += dt;
    rem -= dt;
    if (dirty_Bps > 0 && ws_bytes > 0) {
      memory_.touch_random(anon_region_offset(), ws_bytes,
                           static_cast<std::uint64_t>(dirty_Bps * dt), rng_);
    }
  }
  if (observer_) observer_->on_op_end(*this, lane);
}

sim::Task VmInstance::file_write(std::uint64_t offset, std::uint64_t len) {
  if (len == 0 || !in_image("write", offset, len)) co_return;
  const std::uint32_t lane = observer_ ? observer_->on_file_write(*this, offset, len) : 0;
  const std::uint32_t chunk = cluster_.config().image.chunk_bytes;
  const storage::ChunkId first = static_cast<storage::ChunkId>(offset / chunk);
  const storage::ChunkId last = static_cast<storage::ChunkId>((offset + len - 1) / chunk);
  const double t0 = sim_.now();
  for (storage::ChunkId c = first; c <= last; ++c) {
    co_await run_gate_.wait_open();
    co_await cache_.write_chunk(c);
  }
  io_.bytes_written += static_cast<double>(len);
  io_.write_time_s += sim_.now() - t0;
  if (observer_) observer_->on_op_end(*this, lane);
}

sim::Task VmInstance::file_read(std::uint64_t offset, std::uint64_t len) {
  if (len == 0 || !in_image("read", offset, len)) co_return;
  const std::uint32_t lane = observer_ ? observer_->on_file_read(*this, offset, len) : 0;
  const std::uint32_t chunk = cluster_.config().image.chunk_bytes;
  const storage::ChunkId first = static_cast<storage::ChunkId>(offset / chunk);
  const storage::ChunkId last = static_cast<storage::ChunkId>((offset + len - 1) / chunk);
  const double t0 = sim_.now();
  for (storage::ChunkId c = first; c <= last; ++c) {
    co_await run_gate_.wait_open();
    co_await cache_.read_chunk(c);
  }
  io_.bytes_read += static_cast<double>(len);
  io_.read_time_s += sim_.now() - t0;
  if (observer_) observer_->on_op_end(*this, lane);
}

sim::Task VmInstance::fsync() {
  const std::uint32_t lane = observer_ ? observer_->on_fsync(*this) : 0;
  co_await cache_.fsync();
  if (observer_) observer_->on_op_end(*this, lane);
}

void VmInstance::drop_file_cache(std::uint64_t offset, std::uint64_t len) {
  if (len == 0 || !in_image("drop", offset, len)) return;
  if (observer_) observer_->on_drop_cache(*this, offset, len);
  const std::uint32_t chunk = cluster_.config().image.chunk_bytes;
  const storage::ChunkId first = static_cast<storage::ChunkId>(offset / chunk);
  const storage::ChunkId last = static_cast<storage::ChunkId>((offset + len - 1) / chunk);
  for (storage::ChunkId c = first; c <= last; ++c) cache_.invalidate(c);
}

}  // namespace hm::vm
