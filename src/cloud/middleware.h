// Cloud middleware (Section 4.2): deploys VM instances from a base image
// and orchestrates live migrations. It owns the per-VM virtual-disk stack
// (migration manager or PVFS backend) and, per migration, constructs the
// storage session for the configured approach, issues MIGRATION_REQUEST to
// the source manager and drives the hypervisor.
#pragma once

#include <memory>
#include <vector>

#include "core/hybrid_migrator.h"
#include "core/metrics.h"
#include "core/migration_manager.h"
#include "core/mirror_migrator.h"
#include "core/precopy_migrator.h"
#include "core/shared_migrator.h"
#include "vm/hypervisor.h"
#include "vm/vm_instance.h"

namespace hm::cloud {

class Auditor;

/// Fault recovery: how long an aborted migration waits, on top of both
/// endpoints being back up, before MIGRATION_REQUEST is re-issued (the
/// middleware's retry loop and the scheduler's retry in place).
constexpr double kRetryBackoffS = 1.0;

struct ApproachConfig {
  /// Our approach, and post-copy: the paper's post-copy baseline "is based
  /// on our approach and simply remains passive during the push phase"
  /// (Section 5.2.2), so it reads this too, with the push phase disabled.
  core::HybridConfig hybrid{};
  vm::HypervisorConfig hypervisor{};
  /// Fault recovery: how often an aborted migration is retried.
  int max_attempts = 8;
};

class Middleware {
 public:
  Middleware(sim::Simulator& sim, vm::Cluster& cluster, core::Approach approach,
             ApproachConfig cfg = {});
  Middleware(const Middleware&) = delete;
  Middleware& operator=(const Middleware&) = delete;

  /// Deploy a VM on `node`. For the pvfs-shared baseline the virtual disk is
  /// a qcow2-on-PVFS backend; otherwise a migration manager over local
  /// storage (backed by the striped repository for base content).
  vm::VmInstance& deploy(net::NodeId node, vm::VmConfig vm_cfg = {});

  /// Deploy with an explicit VM id. Sharded experiment slices use this so a
  /// slice's VMs keep their fleet-global ids (and hence the RNG streams those
  /// ids key) no matter which subset of VMs the slice owns.
  vm::VmInstance& deploy(net::NodeId node, vm::VmConfig vm_cfg, int vm_id);

  /// Live-migrate `vm` to `dst`; completes when the source is released.
  /// Fault-aborted attempts are retried (up to max_attempts), reusing partial
  /// destination chunk state when the destination survived the fault.
  sim::Task migrate(vm::VmInstance& vm, net::NodeId dst);

  /// One migration attempt against `rec`: build the session (adopting a
  /// salvageable partial destination replica from a previous attempt of the
  /// same record), drive the hypervisor, and — on abort — salvage the
  /// partial destination state back into the manager's resume slot and
  /// account the wasted wire work (rec.retries, t_first_abort,
  /// retransferred/salvaged bytes). Sets *completed to whether the source
  /// was released. Shared by migrate()'s internal retry loop and the
  /// continuous scheduler (cloud/scheduler.h), whose admission/preemption
  /// logic decides per attempt whether to retry in place or requeue.
  sim::Task migrate_attempt(vm::VmInstance& vm, net::NodeId dst,
                            core::MigrationRecord& rec, bool* completed);

  /// The in-flight session currently driving `rec`'s attempt, or nullptr.
  /// The scheduler uses this to abort (preempt) a running migration.
  core::StorageMigrationSession* active_session_for(
      const core::MigrationRecord& rec) noexcept;

  /// Fault-injection hook: `n` just crashed. Aborts every in-flight
  /// migration attempt that still depends on `n` and has not yet moved
  /// control. Called synchronously by the injector *after* the network
  /// failed the node's flows but *before* any failed transfer resumes, so
  /// sessions observe aborted() the moment their co_await returns false.
  void on_node_down(net::NodeId n);

  core::Metrics& metrics() noexcept { return metrics_; }
  const ApproachConfig& config() const noexcept { return cfg_; }
  std::size_t vm_count() const noexcept { return slots_.size(); }
  vm::VmInstance& vm(std::size_t i) noexcept { return *slots_[i]->vm; }
  core::MigrationManager* manager_of(const vm::VmInstance& vm) noexcept;
  /// Every session ever started, in start order. The objects stay alive for
  /// the whole experiment: parked coroutine frames may still point into
  /// them, and the auditor reads their records and endpoints. Their
  /// per-chunk transfer state does not: migrate_attempt() ends every
  /// attempt with the last step of the session's attempt lifecycle
  /// (StorageMigrationSession::release_transfer_state, after the completion
  /// audit or the salvage), so the heap held follows the migrations in
  /// flight.
  const std::vector<std::unique_ptr<core::StorageMigrationSession>>& sessions() const {
    return sessions_;
  }
  /// Invariant auditor (optional): receives adoption/completion conservation
  /// checks from the migrate loop. Caller keeps ownership.
  void set_auditor(Auditor* a) noexcept { auditor_ = a; }

 private:
  struct VmSlot {
    std::unique_ptr<core::MigrationManager> mgr;        // local-storage approaches
    std::unique_ptr<storage::PvfsBackend> pvfs_backend;  // pvfs-shared
    std::unique_ptr<vm::VmInstance> vm;
  };

  std::unique_ptr<core::StorageMigrationSession> make_session(VmSlot& slot,
                                                              net::NodeId dst,
                                                              core::MigrationRecord& rec);
  /// Whether an attempt toward `dst` can reuse `state`; retires it if not.
  bool keep_resumable(core::MigrationManager::ResumeState& state, net::NodeId dst);
  /// Hands `mgr`'s salvaged replica, if still usable, to the new `session`.
  void adopt_salvage(core::MigrationManager& mgr, core::StorageMigrationSession& session,
                     int vm_id);
  /// Keeps the aborted `session`'s replica, if still usable, in `mgr`'s
  /// resume slot. Returns the chunks kept.
  double salvage(core::MigrationManager& mgr, core::StorageMigrationSession& session);

  sim::Simulator& sim_;
  vm::Cluster& cluster_;
  core::Approach approach_;
  ApproachConfig cfg_;
  Auditor* auditor_ = nullptr;
  core::Metrics metrics_;
  std::vector<std::unique_ptr<VmSlot>> slots_;
  std::vector<std::unique_ptr<core::StorageMigrationSession>> sessions_;
  std::vector<core::StorageMigrationSession*> active_sessions_;  // attempts in flight
  /// Partial destination replicas no attempt can reuse (destination crashed
  /// or target changed), parked until teardown (see keep_resumable).
  std::vector<std::unique_ptr<storage::ChunkStore>> retired_stores_;
  int next_vm_id_ = 0;
};

}  // namespace hm::cloud
