#include "vm/hypervisor.h"

namespace hm::vm {

sim::Task Hypervisor::live_migrate(sim::Simulator& sim, net::FlowNetwork& net,
                                   VmInstance& vm, net::NodeId dst_node,
                                   core::StorageMigrationSession& storage,
                                   HypervisorConfig cfg, core::MigrationRecord& rec) {
  const net::NodeId src_node = vm.node();
  GuestMemory& mem = vm.memory();
  Cluster& cluster = vm.cluster();

  // The migration machinery occupies host CPU on the source for the whole
  // active phase.
  CpuLoadGuard active_load(cluster.node(src_node), kHostCpuOverheadActive);

  // Round 0: ship every used page while the VM keeps running.
  double to_send = static_cast<double>(mem.begin_full_round());
  int round = 0;
  double final_dirty = 0;
  for (;;) {
    const bool sent = co_await net.transfer(src_node, dst_node, to_send,
                                            net::TrafficClass::kMemory,
                                            cfg.migration_speed_Bps);
    if (sent) rec.memory_bytes_sent += to_send;
    if (!sent) storage.abort();
    if (storage.aborted()) co_return;  // CpuLoadGuard unwinds via RAII
    ++round;
    if (storage.converges_with_memory()) {
      // QEMU block migration: stream the dirty chunk backlog in the same
      // migration channel before re-examining convergence.
      co_await storage.storage_round();
      if (storage.aborted()) co_return;
    }
    const double dirty = static_cast<double>(mem.take_dirty_round());
    const double resid = storage.residual_storage_bytes();
    const double downtime_budget = cfg.migration_speed_Bps * kDowntimeTargetS;
    if (round >= kMaxRounds) {
      // Forced stop: ship whatever is left, blowing the downtime target —
      // the non-convergence pathology of pre-copy.
      if (!storage.ready_to_complete()) co_await storage.wait_ready_to_complete();
      if (storage.aborted()) co_return;
      final_dirty = dirty + static_cast<double>(mem.take_dirty_round());
      break;
    }
    if (dirty + resid <= downtime_budget) {
      if (storage.ready_to_complete() && !storage.aborted()) {
        final_dirty = dirty;
        break;
      }
      // Memory converged but storage is not ready for control transfer yet
      // (e.g. mirroring's bulk copy): wait, then iterate the dirtying that
      // accumulated in the meantime.
      co_await storage.wait_ready_to_complete();
      if (storage.aborted()) co_return;
    }
    to_send = dirty;
  }

  // Stop-and-copy: pause the guest, flush the residue + device state.
  vm.pause();
  const double t_pause = sim.now();
  const bool residue_sent =
      co_await net.transfer(src_node, dst_node, final_dirty + kDeviceStateBytes,
                            net::TrafficClass::kMemory, cfg.migration_speed_Bps);
  if (residue_sent) rec.memory_bytes_sent += final_dirty + kDeviceStateBytes;
  if (!residue_sent) storage.abort();
  if (storage.aborted()) {
    vm.resume();  // the guest keeps running at the source; the retry restarts
    co_return;
  }

  // SYNC on the virtual disk (TRANSFER_IO_CONTROL for our approach; final
  // dirty-chunk round for precopy; write drain for mirror; no-op for pvfs).
  co_await storage.pre_control_transfer();
  if (storage.aborted()) {
    vm.resume();
    co_return;
  }

  // Control moves: the VM now runs on the destination.
  storage.transfer_control();
  vm.set_node(dst_node);
  vm.resume();
  rec.downtime_s = sim.now() - t_pause;
  rec.t_control_transfer = sim.now();
  rec.memory_rounds = round;
  active_load.release();

  // Passive phase: wait until the source holds nothing the VM still needs.
  // Residual pulls keep the destination's transfer manager busy.
  {
    CpuLoadGuard passive_load(cluster.node(dst_node), kHostCpuOverheadPassive);
    co_await storage.wait_source_released();
  }
  rec.t_source_released = sim.now();
}

}  // namespace hm::vm
