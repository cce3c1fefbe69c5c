#include "core/migration_manager.h"

#include <cassert>

namespace hm::core {

MigrationManager::MigrationManager(sim::Simulator& sim, vm::Cluster& cluster,
                                   net::NodeId home, int vm_id)
    : sim_(sim),
      cluster_(cluster),
      node_(home),
      vm_id_(vm_id),
      replica_(cluster.make_replica(home)) {}

MigrationManager::~MigrationManager() = default;

sim::Task MigrationManager::backend_read_chunk(ChunkId c) {
  if (session_ != nullptr) {
    co_await session_->vm_read(c);
    co_return;
  }
  co_await local_read(c);
}

sim::Task MigrationManager::backend_write_chunk(ChunkId c) {
  if (session_ != nullptr) {
    co_await session_->vm_write(c);
    co_return;
  }
  co_await local_write(c);
}

sim::Task MigrationManager::backend_sync() {
  // Guest-initiated fsync: make sure host-dirty chunks reach the disk.
  co_await replica_->flush();
}

std::unique_ptr<storage::ChunkStore> MigrationManager::switch_to(
    std::unique_ptr<storage::ChunkStore> new_replica, net::NodeId new_node) {
  auto old = std::move(replica_);
  replica_ = std::move(new_replica);
  node_ = new_node;
  return old;
}

sim::Task MigrationManager::local_read(ChunkId c) {
  if (!replica_->present(c)) {
    auto it = inflight_fetch_.find(c);
    if (it != inflight_fetch_.end()) {
      auto ev = it->second;  // keep alive across suspension
      co_await ev->wait_open();
    } else {
      auto ev = std::make_shared<sim::Gate>(sim_, /*open=*/false);
      inflight_fetch_.emplace(c, ev);
      ++repo_fetches_;
      co_await cluster_.repository().fetch_chunk(node_, c);
      co_await replica_->install_base_chunk(c);
      inflight_fetch_.erase(c);
      ev->open();
    }
  }
  co_await replica_->read_chunk(c);
}

sim::Task MigrationManager::local_write(ChunkId c) {
  // A source write between migration attempts makes any preserved
  // destination copy of the chunk stale.
  if (resume_) resume_->valid.reset(c);
  co_await replica_->write_chunk(c);
}

StorageMigrationSession::StorageMigrationSession(sim::Simulator& sim, vm::Cluster& cluster,
                                                 MigrationManager* mgr, net::NodeId dst_node,
                                                 MigrationRecord& rec)
    : sim_(sim),
      cluster_(cluster),
      mgr_(mgr),
      src_node_(mgr != nullptr ? mgr->node() : 0),
      dst_node_(dst_node),
      rec_(rec),
      dst_epoch_(cluster.network().node_epoch(dst_node)) {
  if (mgr_ != nullptr) {
    dst_store_owned_ = cluster_.make_replica(dst_node_);
    dst_store_ = dst_store_owned_.get();
    src_store_ = &mgr_->replica();
  }
}

StorageMigrationSession::~StorageMigrationSession() = default;

void StorageMigrationSession::transfer_control() {
  assert(mgr_ != nullptr && !control_transferred_);
  src_store_owned_ = mgr_->switch_to(std::move(dst_store_owned_), dst_node_);
  src_store_ = src_store_owned_.get();
  control_transferred_ = true;
}

void StorageMigrationSession::abort() { aborted_ = true; }

void StorageMigrationSession::adopt(MigrationManager::ResumeState state) {
  assert(!control_transferred_ && state.dst_node == dst_node_ && state.dst_store != nullptr);
  dst_store_owned_ = std::move(state.dst_store);
  dst_store_ = dst_store_owned_.get();
  resume_valid_ = std::move(state.valid);
}

std::optional<MigrationManager::ResumeState>
StorageMigrationSession::take_partial_destination() {
  if (control_transferred_ || dst_store_owned_ == nullptr) return std::nullopt;
  MigrationManager::ResumeState state{std::move(dst_store_owned_),
                                      util::DirtyBitmap(dst_store_->num_chunks()),
                                      dst_node_, dst_epoch_};
  state.dst_store->for_each_modified([&](ChunkId c) {
    if (current_at_destination(c)) state.valid.set(c);
  });
  dst_store_ = nullptr;
  return state;
}

void StorageMigrationSession::release_transfer_state() {
  release_requested_ = true;
  maybe_release_transfer_state();
}

void StorageMigrationSession::task_exited() noexcept {
  assert(live_tasks_ > 0);
  --live_tasks_;
  maybe_release_transfer_state();
}

void StorageMigrationSession::maybe_release_transfer_state() {
  if (!release_requested_ || released_ || live_tasks_ > 0) return;
  drop_transfer_state();
  resume_valid_ = util::DirtyBitmap{};
  released_ = true;
}

sim::Task StorageMigrationSession::storage_round() { co_return; }

sim::Task StorageMigrationSession::wait_ready_to_complete() { co_return; }

sim::Task StorageMigrationSession::vm_read(ChunkId c) {
  assert(mgr_ != nullptr);
  co_await mgr_->local_read(c);
}

sim::Task StorageMigrationSession::vm_write(ChunkId c) {
  assert(mgr_ != nullptr);
  co_await mgr_->local_write(c);
}

}  // namespace hm::core
