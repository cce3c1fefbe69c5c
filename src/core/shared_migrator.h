// pvfs-shared baseline (Section 5.2.3): modifications are not stored locally
// at all — the qcow2 snapshot lives on a parallel file system reachable from
// both source and destination, so live migration only moves memory. The
// "storage transfer" session is therefore trivial: at control transfer the
// PVFS client binding follows the VM to the destination node.
#pragma once

#include "core/migration_manager.h"
#include "storage/pvfs.h"

namespace hm::core {

class SharedSession final : public StorageMigrationSession {
 public:
  SharedSession(sim::Simulator& sim, vm::Cluster& cluster, storage::PvfsBackend& backend,
                net::NodeId dst_node, MigrationRecord& rec)
      : StorageMigrationSession(sim, cluster, /*mgr=*/nullptr, dst_node, rec),
        backend_(backend) {
    src_node_ = backend.client_node();
  }

  void start() override {}
  sim::Task pre_control_transfer() override { co_return; }
  void transfer_control() override {
    backend_.set_client_node(dst_node_);
    control_transferred_ = true;
  }
  sim::Task wait_source_released() override { co_return; }
  // No destination replica: nothing to salvage.
  bool current_at_destination(ChunkId) const override { return false; }

 private:
  storage::PvfsBackend& backend_;
};

}  // namespace hm::core
