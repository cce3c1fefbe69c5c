// The migration manager (Section 4.2–4.3 of the paper).
//
// Stand-in for the paper's FUSE layer: every read and write the guest issues
// to its virtual disk goes through here. Under normal operation it serves
// I/O from the local chunk replica, fetching untouched base-image content
// on demand from the striped repository. During a live migration it defers
// to a StorageMigrationSession, which implements one of the five compared
// transfer strategies (Table 1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/metrics.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/chunk_store.h"
#include "storage/page_cache.h"
#include "util/bitmap.h"
#include "vm/compute_node.h"

namespace hm::core {

using storage::ChunkId;

class StorageMigrationSession;

class MigrationManager final : public storage::BlockBackend {
 public:
  MigrationManager(sim::Simulator& sim, vm::Cluster& cluster, net::NodeId home, int vm_id);
  ~MigrationManager() override;

  // --- hypervisor/guest facing (BlockBackend) -----------------------------
  sim::Task backend_read_chunk(ChunkId c) override;
  sim::Task backend_write_chunk(ChunkId c) override;
  sim::Task backend_sync() override;

  // --- state ---------------------------------------------------------------
  net::NodeId node() const noexcept { return node_; }
  int vm_id() const noexcept { return vm_id_; }
  storage::ChunkStore& replica() noexcept { return *replica_; }
  const storage::ChunkStore& replica() const noexcept { return *replica_; }
  vm::Cluster& cluster() noexcept { return cluster_; }
  bool migrating() const noexcept { return session_ != nullptr; }

  // --- migration lifecycle (driven by the middleware / session) ------------
  /// MIGRATION_REQUEST (the paper implements this as an ioctl).
  void begin_migration(StorageMigrationSession* s) noexcept { session_ = s; }
  void end_migration() noexcept { session_ = nullptr; }
  /// Swap the active replica/node at control transfer. Returns the previous
  /// (source) replica so the session can keep serving pulls from it.
  std::unique_ptr<storage::ChunkStore> switch_to(
      std::unique_ptr<storage::ChunkStore> new_replica, net::NodeId new_node);

  // --- plain local I/O paths (default behaviour, reused by sessions) -------
  sim::Task local_read(ChunkId c);
  sim::Task local_write(ChunkId c);

  std::uint64_t repo_fetches() const noexcept { return repo_fetches_; }

  // --- abort/retry bookkeeping (fault axis) ---------------------------------
  /// Partial destination replica preserved across an aborted attempt.
  /// `valid` marks chunks whose content in `dst_store` is still current;
  /// local_write() keeps it honest while the VM runs between attempts
  /// (a source write makes the destination copy stale). The state is only
  /// reusable while the destination node's crash epoch is unchanged — a
  /// destination crash loses the un-synced partial replica.
  struct ResumeState {
    std::unique_ptr<storage::ChunkStore> dst_store;
    util::DirtyBitmap valid{0};
    net::NodeId dst_node = 0;
    std::uint64_t dst_epoch = 0;
  };
  std::optional<ResumeState>& resume_state() noexcept { return resume_; }

 private:
  sim::Simulator& sim_;
  vm::Cluster& cluster_;
  net::NodeId node_;
  int vm_id_;
  std::unique_ptr<storage::ChunkStore> replica_;
  StorageMigrationSession* session_ = nullptr;
  // Deduplicate concurrent on-demand fetches of the same base chunk.
  std::unordered_map<ChunkId, std::shared_ptr<sim::Event>> inflight_fetch_;
  std::uint64_t repo_fetches_ = 0;
  std::optional<ResumeState> resume_;
};

/// Strategy interface for one live storage migration (source + destination
/// coordination). Concrete implementations: HybridSession (our-approach and
/// postcopy), PrecopySession, MirrorSession, SharedSession.
///
/// Lifetime: a session object lives until the experiment's teardown
/// (parked coroutine frames may still point into it), but its per-chunk
/// transfer state (write counts, transfer sets, queues, the pull log) lives
/// only for its attempt. When the attempt ends the owner calls
/// release_transfer_state(); from then on only record(), the endpoints,
/// the store pointers and the scalar counters stay readable, and any
/// per-chunk accessor trips a Debug assert.
class StorageMigrationSession {
 public:
  StorageMigrationSession(sim::Simulator& sim, vm::Cluster& cluster, MigrationManager* mgr,
                          net::NodeId dst_node, MigrationRecord& rec);
  virtual ~StorageMigrationSession();
  StorageMigrationSession(const StorageMigrationSession&) = delete;
  StorageMigrationSession& operator=(const StorageMigrationSession&) = delete;

  /// Active phase begins (paper: MIGRATION_REQUEST on the source).
  virtual void start() = 0;

  /// Hypervisor invoked SYNC right before moving control: finish whatever
  /// the strategy requires before the destination may take over (paper:
  /// stop BACKGROUND_PUSH and invoke TRANSFER_IO_CONTROL).
  virtual sim::Task pre_control_transfer() = 0;

  /// Control moved: the VM now runs on the destination. Swaps the manager's
  /// active replica (overridable for the shared-storage baseline).
  virtual void transfer_control();

  /// Completes when no residual dependency on the source remains (this is
  /// the end of "migration time" for our-approach and postcopy; immediate
  /// for precopy, mirror and pvfs-shared — Section 5.2 of the paper).
  virtual sim::Task wait_source_released() = 0;

  // --- coupling with the hypervisor's pre-copy loop ------------------------
  /// True if storage must converge together with memory (QEMU-style
  /// incremental block migration).
  virtual bool converges_with_memory() const { return false; }
  virtual double residual_storage_bytes() const { return 0; }
  /// One storage pre-copy round (only meaningful when converging).
  virtual sim::Task storage_round();
  /// The hypervisor may only enter stop-and-copy once this is true; until
  /// then it keeps iterating memory rounds (mirroring needs its bulk copy
  /// finished before control can move).
  virtual bool ready_to_complete() const { return true; }
  virtual sim::Task wait_ready_to_complete();

  // --- VM I/O rerouting while the session is active -------------------------
  virtual sim::Task vm_read(ChunkId c);
  virtual sim::Task vm_write(ChunkId c);

  // --- fault handling: abort / retry / resume -------------------------------
  /// Flag the session aborted (a fault hit an endpoint before control
  /// moved). The data-path loops observe the flag — and their failed
  /// transfers — and wind down; the hypervisor bails out after its next
  /// await. Idempotent.
  virtual void abort();
  bool aborted() const noexcept { return aborted_; }
  net::NodeId source_node() const noexcept { return src_node_; }
  net::NodeId destination_node() const noexcept { return dst_node_; }

  /// Retry support: before start(), replace the destination replica with
  /// partial state preserved from a previous attempt; `valid` marks the
  /// chunks already current there, which the strategy skips when seeding
  /// its transfer set.
  void adopt_destination(std::unique_ptr<storage::ChunkStore> store,
                         util::DirtyBitmap valid);
  /// After an abort: relinquish the partial destination replica together
  /// with the set of still-current chunks (written out through valid_out).
  /// Returns null when the strategy keeps no resumable state or control
  /// already moved.
  virtual std::unique_ptr<storage::ChunkStore> take_partial_destination(
      util::DirtyBitmap* valid_out);

  /// The attempt is over: the source was released and audited, or the
  /// attempt aborted and take_partial_destination() has run. Drops the
  /// per-chunk transfer state now, or, while one of the session's own
  /// tasks is still winding down (an aborted push whose failed transfer
  /// has yet to return), the moment the last one exits. Schedules nothing.
  /// Idempotent.
  void release_transfer_state();
  /// True once the per-chunk transfer state is gone.
  bool transfer_state_released() const noexcept { return released_; }

  bool control_transferred() const noexcept { return control_transferred_; }
  MigrationRecord& record() noexcept { return rec_; }
  const MigrationRecord& record() const noexcept { return rec_; }

  /// Introspection for the invariant auditor. Both stay valid across
  /// transfer_control(): the destination replica's ownership moves to the
  /// manager but the object survives, and src_store_ is repointed at the
  /// retained source replica. Null for the shared-storage baseline.
  const storage::ChunkStore* source_store() const noexcept { return src_store_; }
  const storage::ChunkStore* destination_store() const noexcept { return dst_store_; }
  /// Chunks whose source content was made obsolete by a destination-side
  /// write after control transfer. Such a write may still be in flight on
  /// the destination's host bus at the instant the source is released —
  /// releasing early is safe (the authoritative data originates at the
  /// destination), so conservation accepts superseded in lieu of present.
  virtual const util::DirtyBitmap* superseded_chunks() const noexcept { return nullptr; }

 protected:
  /// A session task calls this as it exits: completes a release that was
  /// waiting for the task to wind down.
  void maybe_release_transfer_state();
  /// Whether a task of the session can still touch its transfer state.
  virtual bool transfer_tasks_running() const noexcept { return false; }
  /// Drop the per-chunk transfer state (the single release point).
  virtual void drop_transfer_state() noexcept {}

  sim::Simulator& sim_;
  vm::Cluster& cluster_;
  MigrationManager* mgr_;  // null for the shared-storage baseline
  net::NodeId src_node_;
  net::NodeId dst_node_;
  /// Destination replica, populated during the active phase; handed to the
  /// manager at control transfer.
  std::unique_ptr<storage::ChunkStore> dst_store_owned_;
  storage::ChunkStore* dst_store_ = nullptr;
  /// Source replica, retained after control transfer to serve pulls.
  std::unique_ptr<storage::ChunkStore> src_store_owned_;
  storage::ChunkStore* src_store_ = nullptr;
  bool control_transferred_ = false;
  bool aborted_ = false;
  // Chunks already current at the adopted destination replica (see
  // adopt_destination); only meaningful while has_resume_ is set.
  util::DirtyBitmap resume_valid_{0};
  bool has_resume_ = false;
  MigrationRecord& rec_;

 private:
  bool release_requested_ = false;
  bool released_ = false;
};

}  // namespace hm::core
