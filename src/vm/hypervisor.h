// Pre-copy live memory migration (QEMU-style), deliberately independent of
// the storage transfer strategy — the paper's central design principle is
// that storage migration is handled outside the hypervisor, so this loop
// only coordinates with the storage session at two points:
//   * convergence: QEMU's incremental block migration (the precopy baseline)
//     must converge together with memory, so its residual dirty chunks count
//     against the downtime criterion and each memory round is followed by a
//     storage round;
//   * SYNC: right before control moves, the hypervisor syncs the virtual
//     disk — which our FUSE-level manager turns into TRANSFER_IO_CONTROL.
#pragma once

#include "core/metrics.h"
#include "core/migration_manager.h"
#include "net/flow_network.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "vm/vm_instance.h"

namespace hm::vm {

struct HypervisorConfig {
  /// QEMU migration speed cap; the paper sets it to the full NIC bandwidth.
  double migration_speed_Bps = 125.0e6;
};

class Hypervisor {
 public:
  static constexpr double kDowntimeTargetS = 0.03;  // QEMU 1.0 default max downtime (30 ms)
  static constexpr int kMaxRounds = 100;             // forced stop safeguard
  static constexpr double kDeviceStateBytes = 2.0e6;
  /// Host CPU fraction consumed by the migration machinery (QEMU migration
  /// thread + transfer manager) while the VM shares the node with it: the
  /// source during the active phase, the destination while residual state
  /// is still being pulled. This is the paper's "impact on application
  /// performance" channel beyond pure I/O contention.
  static constexpr double kHostCpuOverheadActive = 0.25;
  static constexpr double kHostCpuOverheadPassive = 0.10;

  /// Run one live migration of `vm` to `dst_node`. `storage` must already be
  /// started (the migration manager forwards the request to the hypervisor
  /// per Algorithm 1, line 9). Fills `rec` with timing/volume details.
  static sim::Task live_migrate(sim::Simulator& sim, net::FlowNetwork& net,
                                VmInstance& vm, net::NodeId dst_node,
                                core::StorageMigrationSession& storage,
                                HypervisorConfig cfg, core::MigrationRecord& rec);
};

}  // namespace hm::vm
