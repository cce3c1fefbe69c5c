// The migration manager (Section 4.2–4.3 of the paper).
//
// Stand-in for the paper's FUSE layer: every read and write the guest issues
// to its virtual disk goes through here. Under normal operation it serves
// I/O from the local chunk replica, fetching untouched base-image content
// on demand from the striped repository. During a live migration it defers
// to a StorageMigrationSession, which implements one of the five compared
// transfer strategies (Table 1).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

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
  /// Partial destination replica salvaged from an aborted attempt
  /// (StorageMigrationSession::take_partial_destination). `valid` marks
  /// chunks whose content in `dst_store` is still current; local_write()
  /// keeps it honest while the VM runs between attempts (a source write
  /// makes the destination copy stale).
  struct ResumeState {
    std::unique_ptr<storage::ChunkStore> dst_store;
    util::DirtyBitmap valid{0};
    net::NodeId dst_node = 0;
    std::uint64_t dst_epoch = 0;  // dst_node's crash epoch when the attempt began

    /// Whether an attempt toward `dst` may reuse the replica: same
    /// destination, not crashed since (a crash loses the un-synced replica).
    bool usable_at(const net::FlowNetwork& net, net::NodeId dst) const noexcept {
      return dst_node == dst && dst_epoch == net.node_epoch(dst);
    }
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
  std::unordered_map<ChunkId, std::shared_ptr<sim::Gate>> inflight_fetch_;
  std::uint64_t repo_fetches_ = 0;
  std::optional<ResumeState> resume_;
};

/// Strategy interface for one live storage migration (source + destination
/// coordination). Concrete implementations: HybridSession (our-approach and
/// postcopy), PrecopySession, MirrorSession, SharedSession.
///
/// Attempt lifecycle. One session drives one migration attempt. This class
/// owns the lifecycle around the strategy's transfer, so a strategy states
/// only how it moves chunks and which of them are current at the
/// destination (current_at_destination):
///   1. adopt(), on a retry, before start(): take over the partial
///      destination replica an earlier attempt salvaged; resumed_current()
///      names the chunks start() need not send again.
///   2. start() ... wait_source_released(): the transfer. Every task the
///      strategy spawns goes through spawn_task() and calls task_exited()
///      as its last statement.
///   3. After an abort, take_partial_destination() salvages the
///      destination replica. dst_store_ is null from then on, and a task
///      still in flight skips its destination write and exits.
///   4. release_transfer_state() once the attempt is over (completed and
///      audited, or aborted and salvaged): the per-chunk transfer state
///      (write counts, transfer sets, queues, the pull log) is dropped the
///      moment no spawned task is live.
///
/// Lifetime: the session object lives until the experiment's teardown
/// (parked coroutine frames may still point into it). After the release
/// only record(), the endpoints, the store pointers and the scalar
/// counters stay readable; a per-chunk accessor trips live()'s Debug
/// assert.
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

  /// Lifecycle step 1: replace the destination replica with the one `state`
  /// salvaged from an earlier attempt to the same destination.
  void adopt(MigrationManager::ResumeState state);
  /// Lifecycle step 3: relinquish the partial destination replica, with
  /// `valid` marking its modified chunks that current_at_destination()
  /// vouches for. Empty when control already moved, the session has no
  /// destination replica (pvfs-shared) or it was taken already.
  std::optional<MigrationManager::ResumeState> take_partial_destination();
  /// The strategy's predicate: whether chunk `c`, modified at the
  /// destination replica, is current there. Reads the transfer state, so
  /// valid only until the release.
  virtual bool current_at_destination(ChunkId c) const = 0;

  /// Lifecycle step 4: drop the per-chunk transfer state now, or, while a
  /// task of the session is still winding down (an aborted push whose
  /// transfer has yet to return), the moment the last one exits. Schedules
  /// nothing. Idempotent.
  void release_transfer_state();
  /// True once the per-chunk transfer state is gone.
  bool transfer_state_released() const noexcept { return released_; }

  bool control_transferred() const noexcept { return control_transferred_; }
  MigrationRecord& record() noexcept { return rec_; }
  const MigrationRecord& record() const noexcept { return rec_; }

  /// Introspection for the invariant auditor. Both stay valid across
  /// transfer_control(): the destination replica's ownership moves to the
  /// manager but the object survives, and src_store_ is repointed at the
  /// retained source replica. Null for the shared-storage baseline, and the
  /// destination is null once take_partial_destination() took it.
  const storage::ChunkStore* source_store() const noexcept { return src_store_; }
  const storage::ChunkStore* destination_store() const noexcept { return dst_store_; }
  /// Chunks whose source content was made obsolete by a destination-side
  /// write after control transfer. Such a write may still be in flight on
  /// the destination's host bus at the instant the source is released —
  /// releasing early is safe (the authoritative data originates at the
  /// destination), so conservation accepts superseded in lieu of present.
  virtual const util::DirtyBitmap* superseded_chunks() const noexcept { return nullptr; }

 protected:
  /// Whether the adopted replica already holds chunk `c` current.
  bool resumed_current(ChunkId c) const noexcept {
    return c < resume_valid_.size() && resume_valid_.test(c);
  }
  /// Spawn a task that touches the transfer state; it must end with
  /// task_exited(), which completes a release that was waiting for it.
  void spawn_task(sim::Task t) {
    ++live_tasks_;
    sim_.spawn(std::move(t));
  }
  void task_exited() noexcept;
  /// Drop the strategy's per-chunk transfer state (the single release point).
  virtual void drop_transfer_state() noexcept {}
  /// The strategy's transfer state, asserting (Debug) it was not released.
  template <class State>
  static auto& live(State& state) noexcept {
    assert(state.has_value() && "transfer state used after release");
    return *state;
  }

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
  MigrationRecord& rec_;

 private:
  void maybe_release_transfer_state();

  std::uint64_t dst_epoch_;  // the destination's crash epoch at construction
  util::DirtyBitmap resume_valid_;  // see resumed_current(); empty unless adopted
  std::uint32_t live_tasks_ = 0;  // spawn_task()s yet to call task_exited()
  bool release_requested_ = false;
  bool released_ = false;
};

}  // namespace hm::core
